//! Majority-vote smoothing over sliding-window classifications.
//!
//! One window's classification is noisy: a keyword spotter sliding a 1 s
//! window every 250 ms sees partial utterances at the window edges. The
//! paper's performance calibration smooths the raw per-window votes before
//! anything downstream acts on them; this module implements the
//! majority-vote variant the deployed SDK uses: the reported label is the
//! most frequent one among the last K window votes.

use std::collections::VecDeque;

/// Majority vote over the last K label votes.
///
/// Ties break toward the *most recent* vote among the tied labels, so a
/// genuine transition (`…, old, old, new, new`) flips as soon as the new
/// label pulls even — the behavior that minimizes detection latency while
/// still suppressing single-window flickers.
#[derive(Debug, Clone)]
pub struct MajorityVote {
    k: usize,
    votes: VecDeque<usize>,
}

impl MajorityVote {
    /// A smoother over the last `k` votes (clamped to at least 1; `k = 1`
    /// is pass-through).
    pub fn new(k: usize) -> MajorityVote {
        let k = k.max(1);
        MajorityVote { k, votes: VecDeque::with_capacity(k) }
    }

    /// The configured vote-window length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Votes currently held (≤ K).
    pub fn len(&self) -> usize {
        self.votes.len()
    }

    /// `true` until the first vote arrives.
    pub fn is_empty(&self) -> bool {
        self.votes.is_empty()
    }

    /// Records one raw window vote and returns the smoothed label index.
    pub fn push(&mut self, label_index: usize) -> usize {
        if self.votes.len() == self.k {
            self.votes.pop_front();
        }
        self.votes.push_back(label_index);
        self.current().unwrap_or(label_index)
    }

    /// The current smoothed label, or `None` before any vote.
    pub fn current(&self) -> Option<usize> {
        let mut best: Option<(usize, usize, usize)> = None; // (label, count, last_seen)
        for (pos, &label) in self.votes.iter().enumerate() {
            let count = self.votes.iter().filter(|&&v| v == label).count();
            let beats = match best {
                None => true,
                Some((_, best_count, best_pos)) => {
                    count > best_count || (count == best_count && pos > best_pos)
                }
            };
            if beats {
                best = Some((label, count, pos));
            }
        }
        best.map(|(label, _, _)| label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flicker_is_suppressed() {
        let mut s = MajorityVote::new(5);
        for _ in 0..4 {
            assert_eq!(s.push(0), 0);
        }
        assert_eq!(s.push(1), 0, "one dissenting vote in five cannot flip the majority");
        assert_eq!(s.push(0), 0);
    }

    #[test]
    fn sustained_transition_flips() {
        let mut s = MajorityVote::new(4);
        for _ in 0..4 {
            s.push(0);
        }
        assert_eq!(s.push(1), 0, "1 of 4");
        assert_eq!(s.push(1), 1, "2 of 4 ties, most recent vote wins");
        assert_eq!(s.push(1), 1, "3 of 4");
    }

    #[test]
    fn k_one_is_passthrough_and_zero_clamps() {
        let mut s = MajorityVote::new(0);
        assert_eq!(s.k(), 1);
        assert_eq!(s.push(3), 3);
        assert_eq!(s.push(7), 7);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn current_before_any_vote() {
        let s = MajorityVote::new(3);
        assert!(s.is_empty());
        assert_eq!(s.current(), None);
    }
}
