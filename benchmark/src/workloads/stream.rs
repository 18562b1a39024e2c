//! `stream_live`: one live sensor stream per client, through
//! `Api::stream_open` / `stream_push` / `stream_close`.

use super::{add_stream_stats, Counters};
use crate::fixtures::{references, same_bits, Task, CALIBRATION};
use crate::harness::{default_cache_capacity, Probe, Stack, Workload};
use crate::spans::Recorder;
use ei_core::{Classification, ImpulseDesign};
use ei_dsp::StreamingExtractor;
use ei_platform::{ProjectId, SessionConfig, SessionId, SessionStats, WindowVerdict};
use ei_runtime::{EonProgram, InferenceEngine};
use ei_serve::ModelSource;
use ei_stream::StreamSession;
use std::sync::Mutex;

const MODEL: &str = "model";
const SAMPLE_RATE: usize = 16_000;
/// 0.1 s between classification windows.
const HOP: usize = SAMPLE_RATE / 10;
/// 0.5 s pushed per call: five windows per push once the stream is full.
const CHUNK: usize = SAMPLE_RATE / 2;
/// Clips (1 s each) in a client's audio loop.
const LOOP_CLIPS: usize = 4;
const LOOP_SAMPLES: usize = LOOP_CLIPS * SAMPLE_RATE;
/// Windows until the loop, and so the sequence of answers, repeats.
const LOOP_WINDOWS: usize = LOOP_SAMPLES / HOP;
/// Pushes each set-up sends through a throwaway session before timing.
const WARMUP_PUSHES: usize = 4;

/// One client's audio loop and the answer for each window position.
struct Audio {
    samples: Vec<f32>,
    references: Vec<Classification>,
}

impl Audio {
    fn chunk(&self, pushed: usize) -> &[f32] {
        let start = pushed * CHUNK % LOOP_SAMPLES;
        &self.samples[start..start + CHUNK]
    }

    /// The raw samples of window `seq` of the endlessly repeated loop.
    fn window(&self, seq: u64) -> Vec<f32> {
        let start = seq as usize % LOOP_WINDOWS * HOP;
        (start..start + SAMPLE_RATE).map(|i| self.samples[i % LOOP_SAMPLES]).collect()
    }

    /// Counts the verdicts that differ from their reference.
    fn wrong(&self, verdicts: &[WindowVerdict]) -> usize {
        verdicts
            .iter()
            .filter(|v| {
                !same_bits(&v.classification, &self.references[v.seq as usize % LOOP_WINDOWS])
            })
            .count()
    }
}

pub struct StreamLive {
    stack: Stack,
    /// One project, one stream per client (a fleet's devices). The store
    /// pins a stream to its project's shard and holds that shard's lock
    /// for the whole of `stream_push`, so the streams take turns.
    project: ProjectId,
    /// What that shard lock does, for the sessions the traced operations
    /// drive directly: one `push` + `poll` at a time. (Streams that did
    /// overlap would also lose windows: see `serve::LOST_TICKET`.)
    turn: Mutex<()>,
    source: ModelSource,
    design: ImpulseDesign,
    engine: EonProgram,
    audio: Vec<Audio>,
    /// Final counters of every session a run closed.
    closed: Mutex<SessionStats>,
}

/// One client: its endpoint session (untraced operations), a session of
/// its own on the same server (traced operations, issued as the calls
/// `Api::stream_push` makes) and an extractor for the DSP probe.
pub struct StreamClient {
    index: usize,
    session: SessionId,
    pushed: usize,
    direct: StreamSession,
    direct_pushed: usize,
    extractor: StreamingExtractor,
    probed: usize,
}

fn session_config(verify_features: bool) -> SessionConfig {
    // the session default: f32 on EON; the oracle runs in the check pass
    SessionConfig { verify_features, ..SessionConfig::new("", HOP) }
}

impl StreamLive {
    pub fn setup(seed: u64, clients: usize) -> StreamLive {
        let task = Task::Kws;
        let impulse = task.impulse(seed, task.calibration(seed, CALIBRATION));
        let audio = (0..clients)
            .map(|c| {
                let samples: Vec<f32> = (0..LOOP_CLIPS)
                    .flat_map(|clip| task.input(seed, c * LOOP_CLIPS + clip))
                    .collect();
                let mut audio = Audio { samples, references: Vec::new() };
                let windows: Vec<Vec<f32>> =
                    (0..LOOP_WINDOWS as u64).map(|seq| audio.window(seq)).collect();
                audio.references = references(&impulse, false, &windows);
                audio
            })
            .collect();
        let stack = Stack::new(clients, default_cache_capacity());
        let json = impulse.to_json().expect("impulse serializes");
        let project = stack.api.create_project("stream", stack.user).expect("user exists");
        stack.api.upload_model(project, stack.user, MODEL, json.clone()).expect("project exists");
        let workload = StreamLive {
            stack,
            project,
            turn: Mutex::new(()),
            source: ModelSource::new(MODEL, json),
            design: impulse.design().clone(),
            engine: EonProgram::compile(impulse.float_artifact()).expect("compiles"),
            audio,
            closed: Mutex::new(SessionStats::default()),
        };
        let mut warm = workload.client(0);
        for _ in 0..WARMUP_PUSHES {
            workload.op(&mut warm).expect("warm-up push succeeds");
        }
        let violations = workload.finish(vec![warm]);
        assert!(violations.is_empty(), "warm-up session: {violations:?}");
        *workload.closed.lock().expect("no client panicked") = SessionStats::default();
        workload
    }

    /// A session opened straight on the server, billed like the
    /// endpoint's (`project-<id>`).
    fn direct_session(&self, verify_features: bool) -> StreamSession {
        let config = SessionConfig {
            tenant: format!("project-{}", self.project),
            ..session_config(verify_features)
        };
        StreamSession::open(self.stack.server.clone(), self.source.clone(), config)
            .expect("session opens")
    }

    fn judge(audio: &Audio, verdicts: &[WindowVerdict]) -> Result<(), String> {
        match audio.wrong(verdicts) {
            0 => Ok(()),
            wrong => Err(format!("{wrong} of {} windows classified wrongly", verdicts.len())),
        }
    }

    /// A closed session must account for every window it assembled, and
    /// on this workload none may be shed, fail or be left behind.
    fn audit(stats: &SessionStats) -> Option<String> {
        let delivered = stats.windows_classified + stats.drops_total() + stats.failures;
        let balanced = stats.windows_emitted == delivered + stats.pending + stats.inflight;
        let clean = stats.windows_emitted == stats.windows_classified
            && stats.oracle_mismatches == 0
            && stats.oracle_windows <= stats.windows_emitted;
        (!(balanced && clean)).then(|| format!("stream session lost windows: {stats:?}"))
    }
}

impl Workload for StreamLive {
    type Client = StreamClient;

    fn probes(&self) -> Vec<Probe> {
        // a push's windows fan out over the pool as one micro-batch: the
        // blocking path holds its share of the kernel runs, not all
        let path = (CHUNK / HOP).div_ceil(self.stack.pool.threads()) as f64;
        vec![
            Probe::once("dsp.stream_push", "stream.push"),
            Probe { name: "runtime.run", inside: "stream.poll", per_op: path },
        ]
    }

    fn client(&self, index: usize) -> StreamClient {
        let session = self
            .stack
            .api
            .stream_open(self.project, self.stack.user, MODEL, session_config(false))
            .expect("stream opens");
        StreamClient {
            index,
            session,
            pushed: 0,
            direct: self.direct_session(false),
            direct_pushed: 0,
            extractor: StreamingExtractor::new(&self.design.dsp).expect("MFCC streams"),
            probed: 0,
        }
    }

    fn op(&self, client: &mut StreamClient) -> Result<(), String> {
        let audio = &self.audio[client.index];
        let chunk = audio.chunk(client.pushed);
        client.pushed += 1;
        let verdicts = self
            .stack
            .api
            .stream_push(client.session, self.stack.user, chunk)
            .map_err(|e| e.to_string())?;
        StreamLive::judge(audio, &verdicts)
    }

    fn op_traced(&self, client: &mut StreamClient, rec: &mut Recorder) -> Result<(), String> {
        let audio = &self.audio[client.index];
        let chunk = audio.chunk(client.direct_pushed);
        client.direct_pushed += 1;
        let direct = &mut client.direct;
        let verdicts = rec.span("bench.stream_push", |rec| {
            let _turn = rec.span("platform.stream_lock", |_| self.turn.lock());
            rec.span("stream.push", |_| direct.push(chunk)).map_err(|e| e.to_string())?;
            Ok::<_, String>(rec.span("stream.poll", |_| direct.poll()))
        })?;
        StreamLive::judge(audio, &verdicts)
    }

    fn probe(&self, client: &mut StreamClient, rec: &mut Recorder) -> Result<(), String> {
        let audio = &self.audio[client.index];
        let chunk = audio.chunk(client.probed);
        rec.probe("dsp.stream_push", || client.extractor.push(chunk)).map_err(|e| e.to_string())?;
        let block = self.design.dsp_block().map_err(|e| e.to_string())?;
        let features =
            block.process(&audio.window(client.probed as u64)).map_err(|e| e.to_string())?;
        client.probed += 1;
        rec.probe("runtime.run", || self.engine.run(&features)).map_err(|e| e.to_string())?;
        Ok(())
    }

    fn finish(&self, clients: Vec<StreamClient>) -> Vec<String> {
        let mut violations = Vec::new();
        for client in clients {
            let closed = self.stack.api.stream_close(client.session, self.stack.user);
            let sessions = match closed {
                Ok(stats) => vec![stats, client.direct.close()],
                Err(e) => {
                    violations.push(e.to_string());
                    vec![client.direct.close()]
                }
            };
            for stats in sessions {
                violations.extend(StreamLive::audit(&stats));
                add_stream_stats(&mut self.closed.lock().expect("no client panicked"), &stats);
            }
        }
        violations
    }

    /// The incremental-DSP oracle: one pass over every client's loop with
    /// `verify_features` on, which re-derives each window's features with
    /// the batch block and counts mismatches.
    fn check(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for audio in &self.audio {
            let mut session = self.direct_session(true);
            let mut wrong = 0;
            for pushed in 0..2 * LOOP_SAMPLES / CHUNK {
                if let Err(e) = session.push(audio.chunk(pushed)) {
                    violations.push(e.to_string());
                }
                wrong += audio.wrong(&session.poll());
            }
            let stats = session.close();
            violations.extend(StreamLive::audit(&stats));
            if wrong > 0
                || stats.oracle_windows != stats.windows_emitted
                || stats.oracle_windows == 0
            {
                violations.push(format!("oracle pass: {wrong} wrong answers, {stats:?}"));
            }
        }
        violations
    }

    fn counters(&self) -> Counters {
        let stream = *self.closed.lock().expect("no client panicked");
        Counters {
            requests: stream.windows_emitted,
            cache: self.stack.server.cache_stats(),
            stream,
            pool_steals: self.stack.pool.steals(),
            ..Counters::default()
        }
    }
}
