//! Shard invariance: the whole platform surface must be byte-identical
//! at any shard count. The same serving + MLOps + streaming flow runs on
//! a 1-shard and a 16-shard [`Api`], and every observable — the
//! `export_json` bytes, registry search order, classification outputs,
//! stream counters, job results and quota decisions — must match
//! exactly. A seeded mixed-op schedule (classify, estimate, keyed job
//! uploads, stream pushes over a few hundred tenants) is then replayed at
//! 1, 4, 16 and 64 shards — serially, and again from real racing threads
//! — and must leave the identical exported state every time: the
//! platform-wide linearizability oracle. The shard count is that of the
//! platform's stores and job lanes; the serving layer in front of them
//! has one admission queue and one artifact cache at every count.
//! `scripts/check.sh` runs this suite under `EI_THREADS=1` and `4` and
//! `EI_SHARDS=1` and `16`, so the contract holds across the pool-width
//! axis too.

use edgelab::core::impulse::ImpulseDesign;
use edgelab::data::ingest::to_wav_bytes;
use edgelab::data::synth::KwsGenerator;
use edgelab::dsp::{DspConfig, MfccConfig};
use edgelab::faults::{Clock, VirtualClock};
use edgelab::nn::{presets, train::TrainConfig};
use edgelab::obs::Obs;
use edgelab::par::{ParPool, Parallelism};
use edgelab::platform::{
    Api, InferenceSpec, JobScheduler, PlatformError, ProjectId, SessionConfig, SessionId, UserId,
};
use edgelab::runtime::EngineKind;
use edgelab::serve::{Server, ServerConfig};
use edgelab::trace::Tracer;
use ei_shard::{shard_index, QuotaLedger, ShardKey, ShardMap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn generator() -> KwsGenerator {
    KwsGenerator {
        classes: vec!["go".into(), "stop".into()],
        sample_rate_hz: 4_000,
        duration_s: 0.25,
        noise: 0.02,
    }
}

fn design() -> ImpulseDesign {
    ImpulseDesign::new(
        "invariance-kws",
        1_000,
        DspConfig::Mfcc(MfccConfig {
            frame_s: 0.032,
            stride_s: 0.016,
            n_coefficients: 8,
            n_filters: 16,
            sample_rate_hz: 4_000,
        }),
    )
    .expect("valid design")
}

fn model_json() -> String {
    let d = design();
    let spec = presets::dense_mlp(d.feature_dims().expect("valid design"), 2, 8);
    let config = TrainConfig {
        epochs: 3,
        batch_size: 8,
        learning_rate: 0.01,
        seed: 21,
        ..TrainConfig::default()
    };
    d.train(&spec, &generator().dataset(4, 21), &config)
        .expect("training succeeds")
        .to_json()
        .expect("serializes")
}

/// Runs one end-to-end platform flow at `shards` shards and returns every
/// observable as a single comparable string.
fn flow(shards: usize, model: &str) -> String {
    let mut log = Vec::new();
    let clock = VirtualClock::shared();
    let pool = Arc::new(ParPool::new(Parallelism::from_env()));
    let api = Api::with_shards(shards);
    let server = Arc::new(Server::new(
        ServerConfig::default(),
        clock.clone() as Arc<dyn Clock>,
        Arc::clone(&pool),
        Tracer::disabled(),
    ));
    api.attach_serving(server).expect("attaches");
    let mut scheduler = JobScheduler::with_sharded_pool(Arc::clone(&pool), shards);

    // --- MLOps flow: users, org, projects, data, versions, registry ----
    let alice = api.create_user("alice");
    let bob = api.create_user("bob");
    api.create_organization("acme", alice).expect("org");
    let projects: Vec<_> = (0..12)
        .map(|i| api.create_project(&format!("proj-{i}"), alice).expect("project"))
        .collect();
    let wav = to_wav_bytes(4_000, &generator().generate(0, 5));
    for (i, &p) in projects.iter().enumerate() {
        api.ingest(p, alice, "wav", &wav, Some(if i % 2 == 0 { "go" } else { "stop" }))
            .expect("ingest");
        api.upload_model(p, alice, "m", model.to_string()).expect("upload");
        api.snapshot(p, alice, &format!("v-{i}")).expect("snapshot");
    }
    api.add_collaborator(projects[0], alice, bob).expect("collab");
    for (i, &p) in projects.iter().enumerate().take(6) {
        api.make_public(p, alice, &["kws", if i % 2 == 0 { "even" } else { "odd" }])
            .expect("publish");
    }
    let hits: Vec<String> = api
        .search_registry("kws")
        .into_iter()
        .map(|e| format!("{}:{}:{}", e.id, e.name, e.samples))
        .collect();
    log.push(format!("search={hits:?}"));
    log.push(format!("list={:?}", api.list_projects(bob)));

    // --- serving flow: classify + estimate through admission ------------
    let clip = generator().generate(0, 9);
    let spec = InferenceSpec::new("m", EngineKind::EonCompiled);
    let c = api.classify(projects[0], alice, &spec, clip.clone()).expect("classifies");
    log.push(format!("classify={c:?}"));
    let e = api.estimate(projects[1], alice, &spec.clone().on_board("nano 33")).expect("estimate");
    log.push(format!("estimate={e:?}"));

    // --- quota flow: a capped project denies identically ----------------
    api.set_project_quota(projects[2], alice, 2).expect("cap");
    let w = to_wav_bytes(4_000, &[0.0; 64]);
    let q: Vec<bool> =
        (0..4).map(|_| api.ingest(projects[2], alice, "wav", &w, None).is_ok()).collect();
    assert!(matches!(
        api.ingest(projects[2], alice, "wav", &w, None),
        Err(PlatformError::QuotaExceeded { .. })
    ));
    log.push(format!(
        "quota={q:?} usage={:?}",
        api.project_quota(projects[2], alice).expect("usage")
    ));

    // --- streaming flow: session pinned to the project's shard ----------
    let session = api
        .stream_open(projects[3], alice, "m", SessionConfig::new("", 256))
        .expect("stream opens");
    let signal: Vec<f32> =
        (0..3).flat_map(|i| generator().generate(i % 2, 31 + i as u64)).collect();
    for chunk in signal.chunks(256).take(8) {
        let verdicts = api.stream_push(session, alice, chunk).expect("push");
        log.push(format!(
            "verdicts={:?}",
            verdicts.iter().map(|v| (v.seq, v.smoothed_label.clone())).collect::<Vec<_>>()
        ));
    }
    let stats = api.stream_close(session, alice).expect("closes");
    log.push(format!(
        "stream windows={} classified={} identical={}",
        stats.windows_emitted,
        stats.windows_classified,
        stats.features_identical()
    ));

    // --- jobs flow: keyed jobs, FIFO per tenant, dead letters -----------
    let mut job_ids = Vec::new();
    for (i, &p) in projects.iter().enumerate().take(8) {
        let id =
            scheduler.submit_keyed(p.0, 1, move || Ok(format!("job-{i}"))).expect("job accepted");
        job_ids.push(id);
    }
    let outputs: Vec<String> =
        job_ids.iter().map(|&id| scheduler.wait(id).expect("job succeeds")).collect();
    log.push(format!("jobs={outputs:?}"));
    let failing = scheduler
        .submit_keyed(projects[0].0, 1, || Err::<String, _>("boom".into()))
        .expect("accepted");
    assert!(scheduler.wait(failing).is_err());
    let letters: Vec<u64> = scheduler.dead_letters().iter().map(|l| l.id).collect();
    log.push(format!("dead={letters:?}"));
    scheduler.shutdown();

    // --- export / import round-trip -------------------------------------
    let export = api.export_json().expect("exports");
    let imported = Api::import_json(&export).expect("imports");
    assert_eq!(imported.export_json().expect("re-exports"), export, "round-trip is exact");

    log.push(format!("export={export}"));
    log.join("\n")
}

/// The tentpole contract: 1 shard and 16 shards produce byte-identical
/// observables for the same serving + MLOps + streaming + jobs flow.
#[test]
fn whole_platform_flow_is_identical_at_1_and_16_shards() {
    let model = model_json();
    let one = flow(1, &model);
    let sixteen = flow(16, &model);
    assert_eq!(one, sixteen, "shard count must never change observable behavior");
}

/// A 64-shard store (more shards than some maps have entries, so many
/// shards stay empty) still exports the identical bytes.
#[test]
fn empty_shards_do_not_perturb_export() {
    let model = model_json();
    let one = flow(1, &model);
    let wide = flow(64, &model);
    assert_eq!(one, wide);
}

/// `EI_SHARDS` drives `Api::new` placement without changing observables:
/// an export taken from an explicit 1-shard store imports into the
/// env-derived layout and re-exports the same bytes.
#[test]
fn env_shard_count_round_trips_export() {
    let api = Api::with_shards(1);
    let u = api.create_user("u");
    for i in 0..10 {
        api.create_project(&format!("p-{i}"), u).expect("project");
    }
    let exported = api.export_json().expect("exports");
    let imported = Api::import_json(&exported).expect("imports");
    assert_eq!(imported.export_json().expect("re-exports"), exported);
}

// --- mixed-op replay: serial vs sharded vs racing ------------------------

/// Replay scale: every shard count × (one serial + two racing) replays
/// must finish in seconds in a debug build.
const TENANTS: usize = 400;
const EVENTS: usize = 600;
/// Tenants holding the real model; serving ops draw from these.
const HOT: usize = 16;
/// Hot tenants with an always-open stream session.
const STREAMS: usize = 4;

#[derive(Clone, Copy)]
enum Op {
    Classify,
    Estimate,
    /// A keyed job uploading a uniquely named artifact — the only op that
    /// mutates exported state, and it commutes with every other upload.
    JobUpload,
    StreamPush,
}

/// The seeded schedule: 35 % classify and 20 % estimate over the hot set,
/// 25 % job uploads over the whole population, 20 % stream pushes.
fn schedule() -> Vec<(Op, usize)> {
    let mut rng = StdRng::seed_from_u64(0xE15_CA1E);
    (0..EVENTS)
        .map(|_| match rng.gen_range(0..100) {
            0..=34 => (Op::Classify, rng.gen_range(0..HOT)),
            35..=54 => (Op::Estimate, rng.gen_range(0..HOT)),
            55..=79 => (Op::JobUpload, rng.gen_range(0..TENANTS)),
            _ => (Op::StreamPush, rng.gen_range(0..STREAMS)),
        })
        .collect()
}

/// A fully provisioned platform: sharded store, serving layer, sharded
/// scheduler, the tenant population with its hot set uploaded and streaming. Serial and racing
/// replays both drive one of these, so a divergence is the replay's.
struct Replay {
    obs: Arc<Obs>,
    api: Api,
    scheduler: JobScheduler,
    population: Vec<(ProjectId, UserId)>,
    sessions: Vec<SessionId>,
    signal: Vec<f32>,
    spec: InferenceSpec,
}

impl Replay {
    fn new(shards: usize, model: &str) -> Replay {
        let clock = VirtualClock::shared();
        let obs = Obs::builder(clock.clone() as Arc<dyn Clock>).build();
        let api = Api::with_shards(shards);
        api.attach_obs(&obs);
        let pool = Arc::new(ParPool::new(Parallelism::from_env()));
        // quotas and queues sized so admission never hides a lost update
        let config = ServerConfig {
            queue_capacity: 4_096,
            quota_capacity: 1 << 20,
            quota_refill_per_sec: 1e6,
            ..ServerConfig::default()
        };
        let server = Server::new(config, clock as Arc<dyn Clock>, pool.clone(), Tracer::disabled());
        api.attach_serving(Arc::new(server)).expect("attaches");
        let scheduler = JobScheduler::with_sharded_pool(pool, shards);

        let population: Vec<(ProjectId, UserId)> = (0..TENANTS)
            .map(|i| {
                let user = api.create_user(&format!("u{i}"));
                (api.create_project(&format!("p{i}"), user).expect("project"), user)
            })
            .collect();
        for &(project, user) in &population[..HOT] {
            api.upload_model(project, user, "m", model.to_string()).expect("upload");
        }
        let sessions = population[..STREAMS]
            .iter()
            .map(|&(project, user)| {
                api.stream_open(project, user, "m", SessionConfig::new("", 256)).expect("opens")
            })
            .collect();
        let signal = (0..4).flat_map(|i| generator().generate(i % 2, 17 + i as u64)).collect();
        let spec = InferenceSpec::new("m", EngineKind::EonCompiled);
        Replay { obs, api, scheduler, population, sessions, signal, spec }
    }

    /// Runs event `i`. Returns whether a serving/stream op was served;
    /// an upload's outcome is checked when its job is awaited.
    fn run(
        &self,
        i: usize,
        (op, tenant): (Op, usize),
        pushed: &mut [usize],
        jobs: &mut Vec<u64>,
    ) -> bool {
        let (project, user) = self.population[tenant];
        match op {
            Op::Classify => {
                self.api.classify(project, user, &self.spec, self.signal[..1_000].to_vec()).is_ok()
            }
            Op::Estimate => {
                self.api.estimate(project, user, &self.spec.clone().on_board("nano 33")).is_ok()
            }
            Op::JobUpload => {
                let api = self.api.clone();
                let name = format!("job-{i}");
                let id = self
                    .scheduler
                    .submit_keyed(project.0, 1, move || {
                        api.upload_model(project, user, &name, format!("{{\"job\":{i}}}"))
                            .map_err(|e| e.to_string())?;
                        Ok(name.clone())
                    })
                    .expect("scheduler accepts");
                jobs.push(id);
                true
            }
            Op::StreamPush => {
                let off = (pushed[tenant] * 250) % (self.signal.len() - 250);
                pushed[tenant] += 1;
                let chunk = &self.signal[off..off + 250];
                self.api.stream_push(self.sessions[tenant], user, chunk).is_ok()
            }
        }
    }

    /// Awaits every upload, closes the streams and exports the state.
    fn finish(mut self, jobs: Vec<u64>) -> String {
        for id in jobs {
            self.scheduler.wait(id).expect("job uploads succeed");
        }
        for (&session, &(_, user)) in self.sessions.iter().zip(&self.population) {
            self.api.stream_close(session, user).expect("session closes");
        }
        self.scheduler.shutdown();
        self.api.export_json().expect("state exports")
    }
}

/// The schedule in arrival order on one thread; nothing may be refused.
fn serial_replay(events: &[(Op, usize)], shards: usize, model: &str) -> String {
    let replay = Replay::new(shards, model);
    let (mut pushed, mut jobs) = (vec![0; STREAMS], Vec::new());
    for (i, &event) in events.iter().enumerate() {
        assert!(
            replay.run(i, event, &mut pushed, &mut jobs),
            "event {i} refused at {shards} shards"
        );
    }
    assert!(
        replay.obs.prometheus().contains("platform_shard_occupancy"),
        "shard occupancy gauges must reach the obs registry"
    );
    assert!(replay.api.shard_report().cache.is_some(), "serving layer attached");
    replay.finish(jobs)
}

/// The schedule from `threads` real OS threads (event `i` on thread
/// `i % threads`), coordinated only by the platform's own locks. Serving
/// and stream refusals are tolerated — they mutate no exported state —
/// but every upload must land: the uploads commute, so a final state
/// different from the serial replay's is a lost or duplicated update
/// inside the sharded store.
fn racing_replay(events: &[(Op, usize)], shards: usize, threads: usize, model: &str) -> String {
    let replay = Replay::new(shards, model);
    let jobs = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let replay = &replay;
                scope.spawn(move || {
                    let (mut pushed, mut jobs) = (vec![0; STREAMS], Vec::new());
                    for (i, &event) in events.iter().enumerate().filter(|(i, _)| i % threads == t) {
                        replay.run(i, event, &mut pushed, &mut jobs);
                    }
                    jobs
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("racing thread completes")).collect()
    });
    replay.finish(jobs)
}

/// `state_identical` and `racing_state_identical`: one mixed-op schedule
/// leaves byte-identical exported state at 1, 4, 16 and 64 shards, and at
/// each shard count a replay from 1 and from 4 racing threads lands on
/// the serial replay's bytes.
#[test]
fn mixed_op_replay_is_identical_at_any_shard_count_serial_or_racing() {
    let model = model_json();
    let events = schedule();
    let mut reference = None;
    for shards in [1, 4, 16, 64] {
        let serial = serial_replay(&events, shards, &model);
        assert!(serial.contains("job-"), "the uploads must show in the exported state");
        let reference = reference.get_or_insert_with(|| serial.clone());
        assert!(&serial == reference, "{shards} shards changed the exported state");
        for threads in [1, 4] {
            let racing = racing_replay(&events, shards, threads, &model);
            assert!(
                racing == serial,
                "racing replay diverged from serial at {shards} shards x {threads} threads"
            );
        }
    }
}

/// Where `ShardMap` and `QuotaLedger` put each of `keys` at `shards`
/// stripes, checking both agree with `shard_index` and that no key's
/// stripe moves while other keys come and go.
fn placements<K: Ord + Clone + ShardKey>(keys: &[K], shards: usize) -> Vec<usize> {
    let map: ShardMap<K, usize> = ShardMap::new(shards);
    let placed: Vec<usize> = keys.iter().map(|k| map.shard_of(k)).collect();
    for (i, key) in keys.iter().enumerate() {
        map.insert(key.clone(), i);
        if i % 3 == 2 {
            map.remove(&keys[i / 2]);
        }
    }
    let mut occupancy = vec![0; shards];
    for (i, key) in keys.iter().enumerate() {
        assert_eq!(map.shard_of(key), placed[i], "key {i} moved under churn at {shards} shards");
        assert_eq!(shard_index(key, shards), placed[i], "key {i} at {shards} shards");
        if map.contains_key(key) {
            occupancy[placed[i]] += 1;
        }
        // a lone charge lands on the ledger's stripe for the key
        let ledger: QuotaLedger<K> = QuotaLedger::new(shards, u64::MAX);
        ledger.charge(key, 1);
        assert_eq!(ledger.used_per_shard()[placed[i]], 1, "ledger stripe of key {i}");
    }
    assert_eq!(map.occupancy(), occupancy, "entries sit where shard_index puts them");
    placed
}

/// Every striped structure places a key with the one pure function
/// `shard_index`: the platform's `ShardMap`s and `QuotaLedger`. (The
/// serving layer has one admission queue and one artifact cache, so it
/// places nothing.)
#[test]
fn every_store_places_keys_with_one_pure_function() {
    let numeric: Vec<u64> = (0..200u64).chain([u64::MAX, 1 << 63, 0xdead_beef]).collect();
    let owned: Vec<String> = (0..200)
        .map(|i| format!("project-{i}"))
        .chain(["".to_string(), "tenant-é".to_string()])
        .collect();
    let borrowed: Vec<&str> = owned.iter().map(String::as_str).collect();
    for shards in [1usize, 3, 8, 64] {
        placements(&numeric, shards);
        let by_string = placements(&owned, shards);
        assert_eq!(placements(&borrowed, shards), by_string, "&str and String place alike");
    }
}
