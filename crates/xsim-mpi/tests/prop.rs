//! Model-based property tests: the indexed matching engine must behave
//! exactly like a naive reference implementation of the MPI matching
//! rules, for arbitrary interleavings of posts and deliveries. Case `i`
//! draws from `DetRng::stream(SEED, i)`.

use xsim_core::rng::for_each_case;
use xsim_core::{Bytes, DetRng, Rank, SimTime};
use xsim_mpi::msg::{Envelope, MatchQueues, SrcSel, TagSel};
use xsim_mpi::CommId;

/// The operations exercised against both implementations.
#[derive(Debug, Clone)]
enum Op {
    Deliver {
        comm: u32,
        src: u32,
        tag: u32,
    },
    Post {
        comm: u32,
        src: Option<u32>,
        tag: Option<u32>,
    },
    Cancel {
        nth_post: usize,
    },
}

/// The value ranges one generated case draws from.
#[derive(Debug, Clone, Copy)]
struct Shape {
    comms: u64,
    srcs: u64,
    tags: u64,
    max_ops: u64,
}

/// A handful of sources and tags on one communicator: every queue stays
/// in the flat small-queue form and wildcards collide constantly.
const SHALLOW: Shape = Shape {
    comms: 1,
    srcs: 4,
    tags: 3,
    max_ops: 60,
};

/// Several communicators, 96 sources, tags from a window that slides
/// with the operation count (collectives take a fresh tag per
/// operation): queues spill into the ordered form and drain back.
const WIDE: Shape = Shape {
    comms: 3,
    srcs: 96,
    tags: 6,
    max_ops: 600,
};

/// A wildcard (`None`) or a value below `bound`.
fn arb_sel(g: &mut DetRng, bound: u64) -> Option<u32> {
    g.gen_bool().then(|| g.gen_in(0..bound) as u32)
}

fn arb_op(g: &mut DetRng, shape: Shape, tag_base: u32) -> Op {
    let comm = g.gen_in(0..shape.comms) as u32;
    match g.gen_in(0..3) {
        0 => Op::Deliver {
            comm,
            src: g.gen_in(0..shape.srcs) as u32,
            tag: tag_base + g.gen_in(0..shape.tags) as u32,
        },
        1 => Op::Post {
            comm,
            src: arb_sel(g, shape.srcs),
            tag: arb_sel(g, shape.tags).map(|t| tag_base + t),
        },
        _ => Op::Cancel {
            nth_post: g.gen_in(0..20) as usize,
        },
    }
}

/// A posted receive: request id and selectors.
struct PostedRecv {
    req: u64,
    src: SrcSel,
    tag: TagSel,
}

/// Naive reference: linear scans in post/delivery order.
#[derive(Default)]
struct NaiveQueues {
    unexpected: Vec<Envelope>,
    posted: Vec<PostedRecv>,
}

impl NaiveQueues {
    fn deliver(&mut self, env: Envelope) -> Option<u64> {
        if let Some(i) = self
            .posted
            .iter()
            .position(|p| p.src.matches(env.src) && p.tag.matches(env.tag))
        {
            Some(self.posted.remove(i).req)
        } else {
            self.unexpected.push(env);
            None
        }
    }

    fn post(&mut self, recv: PostedRecv) -> Option<(Rank, u32, u64)> {
        if let Some(i) = self
            .unexpected
            .iter()
            .position(|e| recv.src.matches(e.src) && recv.tag.matches(e.tag))
        {
            let e = self.unexpected.remove(i);
            Some((e.src, e.tag, e.seq))
        } else {
            self.posted.push(recv);
            None
        }
    }

    fn cancel(&mut self, req: u64) -> bool {
        match self.posted.iter().position(|p| p.req == req) {
            Some(i) => {
                self.posted.remove(i);
                true
            }
            None => false,
        }
    }
}

fn env(comm: u32, src: u32, tag: u32, seq: u64) -> Envelope {
    Envelope {
        src: Rank(src),
        comm: CommId(comm),
        tag,
        data: Bytes::new(),
        seq,
        header_arrival: SimTime(seq),
        payload_ready: Some(SimTime(seq)),
        send_req: None,
        dst: Rank(0),
        matched: None,
    }
}

fn recv(req: u64, src: Option<u32>, tag: Option<u32>) -> PostedRecv {
    PostedRecv {
        req,
        src: src.map_or(SrcSel::Any, |s| SrcSel::Of(Rank(s))),
        tag: tag.map_or(TagSel::Any, TagSel::Of),
    }
}

/// The queue under test next to its reference: one naive queue per
/// communicator (the reference knows nothing of communicators, which
/// must not see each other's traffic).
struct Pair {
    fast: MatchQueues,
    naive: Vec<NaiveQueues>,
    seq: u64,
    req: u64,
    /// Receives that queued instead of matching: `(req, comm, src)`.
    posted: Vec<(u64, u32, Option<u32>)>,
}

impl Pair {
    fn new(comms: u64) -> Self {
        Pair {
            fast: MatchQueues::default(),
            naive: (0..comms).map(|_| NaiveQueues::default()).collect(),
            seq: 0,
            req: 0,
            posted: Vec::new(),
        }
    }

    fn deliver(&mut self, comm: u32, src: u32, tag: u32) -> Option<u64> {
        self.seq += 1;
        let fast = self
            .fast
            .deliver(Box::new(env(comm, src, tag, self.seq)))
            .map(|(req, _)| req);
        let naive = self.naive[comm as usize].deliver(env(comm, src, tag, self.seq));
        assert_eq!(fast, naive, "deliver diverged");
        if let Some(req) = fast {
            self.posted.retain(|p| p.0 != req);
        }
        self.check_lens();
        fast
    }

    fn post(&mut self, comm: u32, src: Option<u32>, tag: Option<u32>) -> Option<(Rank, u32, u64)> {
        self.req += 1;
        let r = recv(self.req, src, tag);
        let fast = self
            .fast
            .post(r.req, CommId(comm), r.src, r.tag)
            .map(|e| (e.src, e.tag, e.seq));
        let naive = self.naive[comm as usize].post(r);
        assert_eq!(fast, naive, "post diverged");
        if fast.is_none() {
            self.posted.push((self.req, comm, src));
        }
        self.check_lens();
        fast
    }

    fn cancel(&mut self, nth_post: usize) {
        if self.posted.is_empty() {
            return;
        }
        let (req, comm, src) = self.posted.remove(nth_post % self.posted.len());
        let src_sel = src.map_or(SrcSel::Any, |s| SrcSel::Of(Rank(s)));
        assert!(self.fast.cancel_posted(req, CommId(comm), src_sel));
        assert!(self.naive[comm as usize].cancel(req));
        // A second cancel finds nothing on either side.
        assert!(!self.fast.cancel_posted(req, CommId(comm), src_sel));
        assert!(!self.naive[comm as usize].cancel(req));
        self.check_lens();
    }

    fn check_lens(&self) {
        let unexpected: usize = self.naive.iter().map(|n| n.unexpected.len()).sum();
        let posted: usize = self.naive.iter().map(|n| n.posted.len()).sum();
        assert_eq!(self.fast.unexpected_len(), unexpected);
        assert_eq!(self.fast.posted_len(), posted);
        assert_eq!(self.posted.len(), posted);
    }

    /// Drain to empty — every queued message by an exact receive, in
    /// delivery order; every posted receive by a cancel — and require
    /// that the queue then physically holds nothing.
    fn drain(mut self) {
        for comm in 0..self.naive.len() {
            while let Some(e) = self.naive[comm].unexpected.first() {
                let (src, tag, seq) = (e.src, e.tag, e.seq);
                let got = self.post(comm as u32, Some(src.0), Some(tag));
                assert_eq!(got, Some((src, tag, seq)), "drain out of delivery order");
            }
        }
        while !self.posted.is_empty() {
            self.cancel(0);
        }
        assert_eq!(self.fast.unexpected_len(), 0);
        assert_eq!(self.fast.posted_len(), 0);
        assert_eq!(
            self.fast.retained_entries(),
            0,
            "drained queue holds entries"
        );
    }
}

fn random_ops(g: &mut DetRng, shape: Shape) {
    let mut pair = Pair::new(shape.comms);
    for i in 0..g.gen_in(0..shape.max_ops) {
        // A fresh tag window every 50 operations.
        match arb_op(g, shape, (i / 50) as u32 * shape.tags as u32) {
            Op::Deliver { comm, src, tag } => {
                pair.deliver(comm, src, tag);
            }
            Op::Post { comm, src, tag } => {
                pair.post(comm, src, tag);
            }
            Op::Cancel { nth_post } => pair.cancel(nth_post),
        }
    }
    pair.drain();
}

#[test]
fn matches_naive_reference() {
    for_each_case(0xC0DE_0003, 256, |g| random_ops(g, SHALLOW));
    for_each_case(0xC0DE_0004, 64, |g| random_ops(g, WIDE));
}

/// A linear-collective root: thousands of unexpected messages, then
/// exact-source receives in rank order — and the mirror image,
/// thousands of posted receives, then the deliveries. A few wildcard
/// receives and a second communicator ride along.
#[test]
fn deep_queues_match_naive_reference() {
    const DEPTH: u32 = 4096;
    const TAG: u32 = 0x4000_0007;
    for_each_case(0xC0DE_0005, 2, |g| {
        // Arrival order is by network distance, not by rank.
        let mut arrival: Vec<u32> = (0..DEPTH).collect();
        for i in (1..arrival.len()).rev() {
            arrival.swap(i, g.gen_in(0..i as u64 + 1) as usize);
        }

        let mut pair = Pair::new(2);
        for &src in &arrival {
            assert_eq!(pair.deliver(0, src, TAG), None);
            if src % 512 == 0 {
                pair.deliver(1, src, TAG);
            }
        }
        assert_eq!(pair.fast.unexpected_len(), DEPTH as usize + 8);
        // A wildcard takes the earliest arrival; the rest go by rank.
        let first = pair.post(0, None, Some(TAG)).expect("queued message");
        assert_eq!(first.0, Rank(arrival[0]));
        for src in (0..DEPTH).filter(|s| *s != arrival[0]) {
            let got = pair.post(0, Some(src), Some(TAG)).expect("queued message");
            assert_eq!(got.0, Rank(src));
        }
        assert_eq!(pair.fast.unexpected_len(), 8);

        // Mirror: receives in rank order, deliveries in arrival order.
        for src in 0..DEPTH {
            assert_eq!(pair.post(0, Some(src), Some(TAG + 1)), None);
        }
        pair.post(0, None, None);
        assert_eq!(pair.fast.posted_len(), DEPTH as usize + 1);
        for &src in &arrival {
            assert!(pair.deliver(0, src, TAG + 1).is_some());
        }
        pair.drain();
    });
}

/// One operation of a rare-wildcard case: each selector of a post is a
/// wildcard one time in 40, so at most one post in 20 has one, and the
/// exact-bucket delivery path runs between the wildcards' arrivals and
/// departures.
fn rare_wildcard_op(g: &mut DetRng, comms: u64, tag_base: u32) -> Op {
    let (srcs, tags) = (6, 4);
    let comm = g.gen_in(0..comms) as u32;
    let sel =
        |g: &mut DetRng, bound: u64| (g.gen_in(0..40) != 0).then(|| g.gen_in(0..bound) as u32);
    match g.gen_in(0..3) {
        0 => Op::Deliver {
            comm,
            src: g.gen_in(0..srcs) as u32,
            tag: tag_base + g.gen_in(0..tags) as u32,
        },
        1 => Op::Post {
            comm,
            src: sel(g, srcs),
            tag: sel(g, tags).map(|t| tag_base + t),
        },
        _ => Op::Cancel {
            nth_post: g.gen_in(0..20) as usize,
        },
    }
}

fn apply(pair: &mut Pair, op: Op) {
    match op {
        Op::Deliver { comm, src, tag } => {
            pair.deliver(comm, src, tag);
        }
        Op::Post { comm, src, tag } => {
            pair.post(comm, src, tag);
        }
        Op::Cancel { nth_post } => pair.cancel(nth_post),
    }
}

/// Wildcards in at most 5 % of posts: a delivery mostly probes only its
/// exact bucket, and must still find an earlier-posted wildcard while
/// one is queued.
#[test]
fn rare_wildcards_match_naive_reference() {
    for_each_case(0xC0DE_0006, 128, |g| {
        let mut pair = Pair::new(2);
        for i in 0..g.gen_in(0..400) {
            apply(&mut pair, rare_wildcard_op(g, 2, (i / 50) as u32 * 4));
        }
        pair.drain();
    });
}

/// Queues held between 9 and 32 resident entries — the depth of a
/// replicated halo, where the flat block grows 8 → 16 → 32 slots — by
/// adds on communicator 1 (fresh tags that nothing there matches) and
/// removals of the oldest unexpected message or a posted receive,
/// around random rare-wildcard traffic on communicator 0.
#[test]
fn mid_depth_queues_match_naive_reference() {
    const LO: usize = 10;
    const HI: usize = 32;
    for_each_case(0xC0DE_0007, 64, |g| {
        let mut pair = Pair::new(2);
        let mut fresh = 1 << 20;
        let mut reached = false;
        for i in 0..600u64 {
            let depth = pair.fast.retained_entries();
            reached |= depth >= LO;
            if reached {
                assert!((LO - 1..=HI).contains(&depth), "depth {depth}");
            }
            if depth < LO {
                fresh += 1;
                if g.gen_bool() {
                    assert_eq!(pair.deliver(1, g.gen_in(0..6) as u32, fresh), None);
                } else {
                    assert_eq!(pair.post(1, Some(g.gen_in(0..6) as u32), Some(fresh)), None);
                }
            } else if depth >= HI {
                let oldest = (0..2).find_map(|c| {
                    let e = pair.naive[c].unexpected.first()?;
                    Some((c as u32, e.src.0, e.tag))
                });
                match oldest {
                    Some((c, src, tag)) if g.gen_bool() || pair.posted.is_empty() => {
                        assert!(pair.post(c, Some(src), Some(tag)).is_some());
                    }
                    _ => pair.cancel(g.gen_in(0..64) as usize),
                }
            } else {
                apply(&mut pair, rare_wildcard_op(g, 1, (i / 50) as u32 * 4));
            }
        }
        assert!(reached, "the case never reached mid depth");
        pair.drain();
    });
}
