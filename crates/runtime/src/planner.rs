//! Greedy-by-size arena memory planner.
//!
//! Both engines pre-plan every activation buffer into one contiguous tensor
//! arena: each buffer gets a static offset such that buffers with
//! overlapping lifetimes never overlap in memory, while buffers that are
//! dead can be recycled. This is the same strategy TFLite Micro's
//! `GreedyMemoryPlanner` uses and is what makes the reported arena size
//! (RAM estimate, paper §4.4) deterministic.

use crate::ir::ModelArtifact;
use crate::{Result, RuntimeError};

/// Planner alignment in bytes: TFLite Micro's default buffer alignment,
/// which keeps SIMD loads aligned.
pub const PLAN_ALIGN: usize = 16;

/// One activation buffer with its lifetime in execution steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferReq {
    /// Size in bytes.
    pub size: usize,
    /// First step (inclusive) at which the buffer must exist.
    pub first_use: usize,
    /// Last step (inclusive) at which the buffer is read.
    pub last_use: usize,
}

/// A planned buffer: the request plus its assigned offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedBuffer {
    /// The original request.
    pub req: BufferReq,
    /// Byte offset within the arena.
    pub offset: usize,
}

/// The result of planning: placed buffers and total arena size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryPlan {
    /// Placed buffers, in the order the requests were given.
    pub buffers: Vec<PlannedBuffer>,
    /// Total arena bytes required.
    pub arena_bytes: usize,
}

/// Plans buffer placement with the greedy-by-size strategy: largest buffers
/// first, each placed at the lowest offset that does not collide with an
/// already-placed, lifetime-overlapping buffer.
///
/// # Errors
///
/// Returns [`RuntimeError::InvalidPlan`] if any request has
/// `first_use > last_use`.
pub fn plan_memory(requests: &[BufferReq]) -> Result<MemoryPlan> {
    for (i, r) in requests.iter().enumerate() {
        if r.first_use > r.last_use {
            return Err(RuntimeError::InvalidPlan(format!(
                "buffer {i} has first_use {} after last_use {}",
                r.first_use, r.last_use
            )));
        }
    }
    // place largest first
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by(|&a, &b| requests[b].size.cmp(&requests[a].size).then(a.cmp(&b)));

    let mut placed: Vec<PlannedBuffer> =
        vec![
            PlannedBuffer { req: BufferReq { size: 0, first_use: 0, last_use: 0 }, offset: 0 };
            requests.len()
        ];
    let mut done: Vec<usize> = Vec::new();
    for &i in &order {
        let req = requests[i];
        let size = req.size.max(1).next_multiple_of(PLAN_ALIGN);
        // candidate gaps: 0 and the end of every lifetime-overlapping buffer
        let mut candidates = vec![0usize];
        for &j in &done {
            let other = placed[j];
            if lifetimes_overlap(req, other.req) {
                candidates.push(other.offset + other.req.size.max(1).next_multiple_of(PLAN_ALIGN));
            }
        }
        candidates.sort_unstable();
        let offset = candidates
            .into_iter()
            .find(|&cand| {
                done.iter().all(|&j| {
                    let other = placed[j];
                    !lifetimes_overlap(req, other.req)
                        || !ranges_overlap(
                            cand,
                            size,
                            other.offset,
                            other.req.size.max(1).next_multiple_of(PLAN_ALIGN),
                        )
                })
            })
            .ok_or_else(|| {
                RuntimeError::InvalidPlan(format!(
                    "no feasible offset for buffer {i} (size {size})"
                ))
            })?;
        placed[i] = PlannedBuffer { req, offset };
        done.push(i);
    }
    let arena_bytes = placed
        .iter()
        .map(|p| p.offset + p.req.size.max(1).next_multiple_of(PLAN_ALIGN))
        .max()
        .unwrap_or(0);
    Ok(MemoryPlan { buffers: placed, arena_bytes })
}

fn lifetimes_overlap(a: BufferReq, b: BufferReq) -> bool {
    a.first_use <= b.last_use && b.first_use <= a.last_use
}

fn ranges_overlap(a_off: usize, a_len: usize, b_off: usize, b_len: usize) -> bool {
    a_off < b_off + b_len && b_off < a_off + a_len
}

/// Builds the activation-buffer requests for a sequential model.
///
/// Buffer 0 is the input; each non-in-place op `i` produces a buffer that
/// lives from step `i` until the next non-in-place consumer. In-place ops
/// (reshape, flatten, dropout-at-inference) extend their input's lifetime
/// instead of allocating.
pub fn activation_requests(artifact: &ModelArtifact) -> Vec<BufferReq> {
    let elem = artifact.activation_elem_bytes();
    let ops = artifact.ops();
    let mut requests = Vec::new();
    // input buffer: produced before step 0
    let mut current = BufferReq { size: artifact.input_len() * elem, first_use: 0, last_use: 0 };
    for (step, op) in ops.iter().enumerate() {
        current.last_use = step;
        if op.in_place {
            continue;
        }
        requests.push(current);
        current = BufferReq { size: op.output_elems * elem, first_use: step, last_use: step + 1 };
    }
    current.last_use = ops.len();
    requests.push(current);
    requests
}

/// Plans the activation arena for a model artifact.
///
/// # Errors
///
/// Propagates [`plan_memory`] failures (which cannot occur for requests
/// produced by [`activation_requests`]).
pub fn plan_model(artifact: &ModelArtifact) -> Result<MemoryPlan> {
    plan_memory(&activation_requests(artifact))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn rejects_inverted_lifetime() {
        let reqs = [BufferReq { size: 10, first_use: 3, last_use: 1 }];
        assert!(plan_memory(&reqs).is_err());
    }

    #[test]
    fn disjoint_lifetimes_share_memory() {
        let reqs = [
            BufferReq { size: 100, first_use: 0, last_use: 1 },
            BufferReq { size: 100, first_use: 2, last_use: 3 },
        ];
        let plan = plan_memory(&reqs).unwrap();
        assert_eq!(plan.buffers[0].offset, plan.buffers[1].offset);
        assert_eq!(plan.arena_bytes, 100usize.next_multiple_of(PLAN_ALIGN));
    }

    #[test]
    fn overlapping_lifetimes_do_not_share() {
        let reqs = [
            BufferReq { size: 100, first_use: 0, last_use: 2 },
            BufferReq { size: 50, first_use: 1, last_use: 3 },
        ];
        let plan = plan_memory(&reqs).unwrap();
        let a = plan.buffers[0];
        let b = plan.buffers[1];
        assert!(!ranges_overlap(
            a.offset,
            a.req.size.next_multiple_of(PLAN_ALIGN),
            b.offset,
            b.req.size.next_multiple_of(PLAN_ALIGN)
        ));
        assert_eq!(
            plan.arena_bytes,
            100usize.next_multiple_of(PLAN_ALIGN) + 50usize.next_multiple_of(PLAN_ALIGN)
        );
    }

    #[test]
    fn chain_arena_is_max_adjacent_pair() {
        // a sequential chain: each buffer overlaps only its neighbours, so
        // the arena is the largest sum of adjacent (aligned) pairs
        let sizes = [400usize, 800, 200, 1600, 100];
        let reqs: Vec<BufferReq> = sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| BufferReq { size: s, first_use: i, last_use: i + 1 })
            .collect();
        let plan = plan_memory(&reqs).unwrap();
        let expected = sizes
            .windows(2)
            .map(|w| w[0].next_multiple_of(PLAN_ALIGN) + w[1].next_multiple_of(PLAN_ALIGN))
            .max()
            .unwrap();
        assert_eq!(plan.arena_bytes, expected);
    }

    #[test]
    fn empty_plan() {
        let plan = plan_memory(&[]).unwrap();
        assert_eq!(plan.arena_bytes, 0);
    }

    proptest! {
        #[test]
        fn prop_no_live_overlap(
            reqs in proptest::collection::vec(
                (1usize..5000, 0usize..10, 0usize..10).prop_map(|(size, a, b)| BufferReq {
                    size,
                    first_use: a.min(b),
                    last_use: a.max(b),
                }),
                1..25,
            )
        ) {
            let plan = plan_memory(&reqs).unwrap();
            for i in 0..plan.buffers.len() {
                for j in (i + 1)..plan.buffers.len() {
                    let a = plan.buffers[i];
                    let b = plan.buffers[j];
                    if lifetimes_overlap(a.req, b.req) {
                        prop_assert!(
                            !ranges_overlap(
                                a.offset,
                                a.req.size.max(1).next_multiple_of(PLAN_ALIGN),
                                b.offset,
                                b.req.size.max(1).next_multiple_of(PLAN_ALIGN)
                            ),
                            "buffers {i} and {j} overlap in time and memory"
                        );
                    }
                }
            }
            // arena never smaller than the largest single buffer
            let biggest = reqs.iter().map(|r| r.size.max(1).next_multiple_of(PLAN_ALIGN)).max().unwrap();
            prop_assert!(plan.arena_bytes >= biggest);
            // arena never larger than the no-sharing total
            let total: usize = reqs.iter().map(|r| r.size.max(1).next_multiple_of(PLAN_ALIGN)).sum();
            prop_assert!(plan.arena_bytes <= total);
        }
    }
}
