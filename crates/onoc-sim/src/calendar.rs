//! A cycle-bucketed calendar queue for the simulation hot path.
//!
//! The event loops of this crate pop events in `(time, event)` order where
//! `event` is a small `Ord` enum whose variant order encodes the
//! same-cycle tie-break. A `BinaryHeap<Reverse<(u64, E)>>` gives that
//! ordering at `O(log n)` per operation with poor cache behaviour; the
//! simulators' timestamps, however, advance monotonically and cluster
//! tightly (transmission durations are a few hundred to a few thousand
//! cycles), which is exactly the regime calendar queues (Brown, CACM '88)
//! serve in `O(1)`.
//!
//! [`EventQueue`] keeps a ring of [`EventQueue::WINDOW`] per-cycle
//! buckets; events scheduled further ahead than the window land in a
//! [`RadixHeap`] overflow and migrate into the ring as the cursor
//! approaches them. Because all live events sit in `[cursor,
//! cursor + WINDOW)` — the pop cursor trails the global minimum — each
//! bucket holds events of exactly one timestamp, so a pop is "scan the
//! current bucket for the minimum event", which is tiny (events per cycle
//! are few) and allocation-free once the buckets are warm.
//!
//! The overflow only has to order by time: the ring bucket an event
//! migrates into resolves the same-cycle tie-break. A source-backlogged
//! static run parks millions of far-future events there, and the radix
//! heap (Ahuja et al., JACM '90) serves that monotone-key pattern with an
//! append per push and a few bucket moves per event over its lifetime.
//!
//! The ordering contract is verified against the `BinaryHeap` reference
//! implementation by a property test below.

/// A monotone priority queue over `(u64, E)` with `O(1)` push/pop for
/// near-future events.
///
/// Invariant required from the caller (and upheld by event-driven
/// simulation): an event may never be pushed with a timestamp smaller
/// than the last popped timestamp. `push` panics (debug) on violations.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue<E> {
    /// `WINDOW` per-cycle buckets, indexed by `time & (WINDOW - 1)`.
    buckets: Vec<Vec<E>>,
    /// Timestamp of the last pop (the floor of every live event).
    cursor: u64,
    /// Lower bound on the earliest non-empty bucket's timestamp.
    next_hint: u64,
    /// Events currently in the bucket ring.
    window_len: usize,
    /// Far-future events (`time >= cursor + WINDOW`).
    overflow: RadixHeap<E>,
}

impl<E: Copy + Ord> EventQueue<E> {
    /// Bucket-ring span in cycles (power of two). Chosen to cover typical
    /// transmission durations so the overflow stays cold.
    pub(crate) const WINDOW: u64 = 4096;

    pub(crate) fn new() -> Self {
        Self {
            buckets: (0..Self::WINDOW).map(|_| Vec::new()).collect(),
            cursor: 0,
            next_hint: 0,
            window_len: 0,
            overflow: RadixHeap::new(),
        }
    }

    /// Empties the queue, keeping every bucket's capacity for reuse.
    pub(crate) fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.cursor = 0;
        self.next_hint = 0;
        self.window_len = 0;
        self.overflow.clear();
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.window_len == 0 && self.overflow.is_empty()
    }

    fn bucket_insert(&mut self, time: u64, event: E) {
        debug_assert!(time >= self.cursor && time < self.cursor + Self::WINDOW);
        self.buckets[(time & (Self::WINDOW - 1)) as usize].push(event);
        self.window_len += 1;
        if time < self.next_hint {
            self.next_hint = time;
        }
    }

    /// Schedules `event` at `time` (which must not precede the last pop).
    pub(crate) fn push(&mut self, time: u64, event: E) {
        debug_assert!(
            time >= self.cursor,
            "event scheduled at {time} before the queue cursor {}",
            self.cursor
        );
        if time < self.cursor + Self::WINDOW {
            self.bucket_insert(time, event);
        } else {
            self.overflow.push(time, event);
        }
    }

    /// Moves every overflow event that entered the window into its bucket.
    ///
    /// The only place the overflow's floor rises, and only to a time
    /// below `cursor + WINDOW`: every later overflow push lands at or
    /// above that, since the cursor never moves back.
    fn migrate_overflow(&mut self) {
        let end = self.cursor + Self::WINDOW;
        while self.overflow.peek_min().is_some_and(|t| t < end) {
            let (t, e) = self.overflow.pop_min().expect("peeked");
            self.bucket_insert(t, e);
        }
    }

    /// Timestamp of the earliest event, or `None` when empty. Never moves
    /// the cursor, and raises the overflow's floor only by migrating
    /// events into the ring — peeking must not forbid pushes at times the
    /// caller is still allowed to schedule (e.g. source events due before
    /// a far-future wake-up).
    pub(crate) fn peek_time(&mut self) -> Option<u64> {
        self.migrate_overflow();
        if self.window_len > 0 {
            let mut t = self.next_hint.max(self.cursor);
            while self.buckets[(t & (Self::WINDOW - 1)) as usize].is_empty() {
                t += 1;
                debug_assert!(t < self.cursor + Self::WINDOW, "window_len > 0 lied");
            }
            self.next_hint = t;
            Some(t)
        } else {
            self.overflow.peek_min()
        }
    }

    /// Removes and returns the earliest `(time, event)` pair; same-time
    /// events pop in `E`'s `Ord` order.
    pub(crate) fn pop(&mut self) -> Option<(u64, E)> {
        let t = self.peek_time()?;
        if self.window_len == 0 {
            // Every live event is far-future: jump the cursor to the
            // earliest one and pull its cohort into the ring. Safe here
            // (unlike in peek): the caller processes this pop at `t`, so
            // nothing may be scheduled before it anymore.
            self.cursor = t;
            self.next_hint = t;
            self.migrate_overflow();
        }
        let bucket = &mut self.buckets[(t & (Self::WINDOW - 1)) as usize];
        let mut best = 0;
        for i in 1..bucket.len() {
            if bucket[i] < bucket[best] {
                best = i;
            }
        }
        let event = bucket.swap_remove(best);
        self.window_len -= 1;
        self.cursor = t;
        self.next_hint = t;
        Some((t, event))
    }
}

/// Number of radix-heap buckets: one for keys equal to the floor, plus
/// one per bit position of a `u64` key.
const RADIX_BUCKETS: usize = u64::BITS as usize + 1;

/// A radix heap over `(u64, E)`, ordered by key only.
///
/// Bucket `b > 0` holds the keys whose highest bit differing from
/// `floor` is bit `b - 1`; bucket 0 holds the keys equal to `floor`.
/// Every bucket's keys are below the next bucket's, so the minimum sits
/// in the lowest non-empty bucket. A pop that finds bucket 0 empty raises
/// the floor to that minimum and re-files the bucket's keys, each into a
/// strictly lower bucket, so a key moves at most 64 times in its life.
///
/// Keys pushed must not be below `floor`, which only `pop_min` raises.
#[derive(Debug, Clone)]
struct RadixHeap<E> {
    buckets: [Vec<(u64, E)>; RADIX_BUCKETS],
    /// Lower bound on every key: the key of the last pop.
    floor: u64,
    len: usize,
    /// The smallest key, once a peek has found it; `None` when unknown.
    min: Option<u64>,
}

impl<E> RadixHeap<E> {
    fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| Vec::new()),
            floor: 0,
            len: 0,
            min: None,
        }
    }

    fn clear(&mut self) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        self.floor = 0;
        self.len = 0;
        self.min = None;
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn bucket_of(floor: u64, key: u64) -> usize {
        (u64::BITS - (key ^ floor).leading_zeros()) as usize
    }

    fn push(&mut self, key: u64, value: E) {
        debug_assert!(
            key >= self.floor,
            "key {key} pushed below the radix floor {}",
            self.floor
        );
        self.min = match self.min {
            Some(m) => Some(m.min(key)),
            None if self.len == 0 => Some(key),
            None => None,
        };
        self.buckets[Self::bucket_of(self.floor, key)].push((key, value));
        self.len += 1;
    }

    /// The smallest key, or `None` when empty. Caches the answer until
    /// the next pop, and never raises the floor.
    fn peek_min(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        if self.min.is_none() {
            let b = self
                .buckets
                .iter()
                .position(|bucket| !bucket.is_empty())
                .expect("len > 0");
            self.min = Some(if b == 0 {
                self.floor
            } else {
                self.buckets[b]
                    .iter()
                    .map(|&(k, _)| k)
                    .min()
                    .expect("non-empty")
            });
        }
        self.min
    }

    /// Removes an entry with the smallest key (ties in any order).
    fn pop_min(&mut self) -> Option<(u64, E)> {
        if self.buckets[0].is_empty() {
            let m = self.peek_min()?;
            let b = Self::bucket_of(self.floor, m);
            self.floor = m;
            let mut spill = std::mem::take(&mut self.buckets[b]);
            for (k, v) in spill.drain(..) {
                self.buckets[Self::bucket_of(m, k)].push((k, v));
            }
            // Hand the emptied vector back so its capacity is reused.
            self.buckets[b] = spill;
        }
        let entry = self.buckets[0].pop().expect("bucket 0 holds the minimum");
        self.len -= 1;
        self.min = if self.buckets[0].is_empty() {
            None
        } else {
            Some(self.floor)
        };
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A stand-in for the engines' event enums: variant-ordered, then
    /// payload-ordered.
    type Ev = (u8, u32);

    #[test]
    fn empty_queue_behaves() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_cycle_events_pop_in_ord_order() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(10, (3, 0));
        q.push(10, (0, 7));
        q.push(10, (0, 2));
        q.push(10, (1, 1));
        assert_eq!(q.pop(), Some((10, (0, 2))));
        assert_eq!(q.pop(), Some((10, (0, 7))));
        assert_eq!(q.pop(), Some((10, (1, 1))));
        assert_eq!(q.pop(), Some((10, (3, 0))));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        let far = EventQueue::<Ev>::WINDOW * 3 + 17;
        q.push(far, (1, 1));
        q.push(5, (0, 0));
        assert_eq!(q.pop(), Some((5, (0, 0))));
        // Mid-flight push that becomes eligible before the overflow event.
        q.push(far - 1, (2, 2));
        assert_eq!(q.pop(), Some((far - 1, (2, 2))));
        assert_eq!(q.pop(), Some((far, (1, 1))));
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_event_is_not_shadowed_by_later_window_push() {
        // Regression shape: an event lands in overflow, the cursor then
        // advances close enough that a *later* event fits the window. The
        // earlier overflow event must still pop first.
        let w = EventQueue::<Ev>::WINDOW;
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(w + 10, (0, 0)); // overflow relative to cursor 0
        q.push(20, (0, 1));
        assert_eq!(q.pop(), Some((20, (0, 1)))); // cursor now 20
        q.push(w + 11, (0, 2)); // fits the window now
        assert_eq!(q.pop(), Some((w + 10, (0, 0))));
        assert_eq!(q.pop(), Some((w + 11, (0, 2))));
    }

    #[test]
    fn clear_resets_for_reuse() {
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(3, (0, 0));
        q.push(EventQueue::<Ev>::WINDOW * 2, (0, 1));
        q.clear();
        assert!(q.is_empty());
        q.push(1, (1, 1));
        assert_eq!(q.pop(), Some((1, (1, 1))));
    }

    #[test]
    fn clear_resets_the_radix_floor() {
        // A migration raises the overflow's floor far above 0; a cleared
        // queue (a reused `SimScratch`) must still accept time 0 and
        // overflow pushes below the old floor.
        let w = EventQueue::<Ev>::WINDOW;
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(w * 50, (0, 0));
        assert_eq!(q.pop(), Some((w * 50, (0, 0))));
        q.clear();
        q.push(0, (1, 1));
        q.push(w * 2, (1, 2));
        assert_eq!(q.pop(), Some((0, (1, 1))));
        assert_eq!(q.pop(), Some((w * 2, (1, 2))));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_with_only_far_future_events_keeps_the_floor() {
        // Peeking finds (and caches) the overflow minimum but must not
        // raise the floor to it: pushes from `cursor + WINDOW - 1` up are
        // still legal, and the first two of these lie below that minimum.
        let w = EventQueue::<Ev>::WINDOW;
        let mut q: EventQueue<Ev> = EventQueue::new();
        q.push(7, (0, 0));
        assert_eq!(q.pop(), Some((7, (0, 0))));
        let cursor = 7;
        q.push(cursor + 20 * w, (0, 1));
        q.push(cursor + 10 * w, (0, 2));
        assert_eq!(q.peek_time(), Some(cursor + 10 * w));
        assert_eq!(q.peek_time(), Some(cursor + 10 * w));
        q.push(cursor + w + 1, (3, 3));
        q.push(cursor + w, (2, 4));
        q.push(cursor + w - 1, (1, 5));
        assert_eq!(q.peek_time(), Some(cursor + w - 1));
        assert_eq!(q.pop(), Some((cursor + w - 1, (1, 5))));
        assert_eq!(q.pop(), Some((cursor + w, (2, 4))));
        assert_eq!(q.pop(), Some((cursor + w + 1, (3, 3))));
        assert_eq!(q.pop(), Some((cursor + 10 * w, (0, 2))));
        assert_eq!(q.pop(), Some((cursor + 20 * w, (0, 1))));
        assert!(q.is_empty());
    }

    /// Splits one raw op into `(time delta, variant, payload, pop?)`.
    /// The delta's bit width is uniform in `0..=24`, so deltas are
    /// log-uniform up to 2^24 and reach every radix bucket a run's
    /// horizon can.
    fn decode(raw: u64) -> (u64, Ev, bool) {
        let width = (raw >> 32) % 25;
        let delta = raw & ((1u64 << width) - 1);
        let variant = ((raw >> 40) & 3) as u8;
        let payload = ((raw >> 42) & 63) as u32;
        (delta, (variant, payload), raw >> 63 == 1)
    }

    proptest! {
        /// The calendar queue dequeues exactly like the `BinaryHeap`
        /// reference under any monotone-push workload, including pushes
        /// landing in the radix overflow and interleaved pops. Backlog
        /// mode first parks thousands of far-future events, as a
        /// source-backlogged static run does, before any pop.
        ///
        /// Each raw op packs `(time delta, variant, payload, pop?)` into
        /// one integer (the vendored proptest has no tuple strategies).
        #[test]
        fn matches_binary_heap_reference(
            raw_ops in proptest::collection::vec(0u64..=u64::MAX, 1..200),
            backlog in any::<bool>(),
            parked in proptest::collection::vec(0u64..=u64::MAX, 2000..5000),
        ) {
            let mut calendar: EventQueue<Ev> = EventQueue::new();
            let mut reference: BinaryHeap<Reverse<(u64, Ev)>> = BinaryHeap::new();
            if backlog {
                for raw in parked {
                    let (delta, event, _) = decode(raw);
                    let time = EventQueue::<Ev>::WINDOW + delta;
                    calendar.push(time, event);
                    reference.push(Reverse((time, event)));
                }
            }
            let mut clock = 0u64;
            for raw in raw_ops {
                let (delta, event, pop_now) = decode(raw);
                // Monotone schedule: never before the last popped time.
                let time = clock + delta;
                calendar.push(time, event);
                reference.push(Reverse((time, event)));
                if pop_now {
                    let got = calendar.pop();
                    let want = reference.pop().map(|Reverse((t, e))| (t, e));
                    prop_assert_eq!(got, want);
                    clock = got.expect("both queues held an event").0;
                }
            }
            loop {
                let got = calendar.pop();
                let want = reference.pop().map(|Reverse((t, e))| (t, e));
                prop_assert_eq!(got, want);
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
