//! Model-based property tests: the indexed matching engine must behave
//! exactly like a naive reference implementation of the MPI matching
//! rules, for arbitrary interleavings of posts and deliveries. Case `i`
//! draws from `DetRng::stream(SEED, i)`.

use xsim_core::rng::for_each_case;
use xsim_core::{Bytes, DetRng, Rank, SimTime};
use xsim_mpi::msg::{Envelope, MatchQueues, PostedRecv, SrcSel, TagSel};
use xsim_mpi::CommId;

/// The operations exercised against both implementations.
#[derive(Debug, Clone)]
enum Op {
    Deliver { src: u32, tag: u32 },
    Post { src: Option<u32>, tag: Option<u32> },
    Cancel { nth_post: usize },
}

/// A wildcard (`None`) or a value below `bound`.
fn arb_sel(g: &mut DetRng, bound: u64) -> Option<u32> {
    g.gen_bool().then(|| g.gen_in(0..bound) as u32)
}

fn arb_op(g: &mut DetRng) -> Op {
    match g.gen_in(0..3) {
        0 => Op::Deliver {
            src: g.gen_in(0..4) as u32,
            tag: g.gen_in(0..3) as u32,
        },
        1 => Op::Post {
            src: arb_sel(g, 4),
            tag: arb_sel(g, 3),
        },
        _ => Op::Cancel {
            nth_post: g.gen_in(0..20) as usize,
        },
    }
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

fn env(src: u32, tag: u32, seq: u64) -> Envelope {
    Envelope {
        src: Rank(src),
        comm: CommId(0),
        tag,
        data: Bytes::new(),
        seq,
        header_arrival: SimTime(seq),
        payload_ready: Some(SimTime(seq)),
        send_req: None,
    }
}

fn recv(req: u64, src: Option<u32>, tag: Option<u32>) -> PostedRecv {
    PostedRecv {
        req,
        comm: CommId(0),
        src: src.map_or(SrcSel::Any, |s| SrcSel::Of(Rank(s))),
        tag: tag.map_or(TagSel::Any, TagSel::Of),
        posted_at: SimTime(0),
        post_seq: 0,
    }
}

#[test]
fn matches_naive_reference() {
    for_each_case(0xC0DE_0003, 256, |g| {
        let mut fast = MatchQueues::default();
        let mut naive = NaiveQueues::default();
        let mut seq = 0u64;
        let mut req = 0u64;
        let mut posted_reqs: Vec<u64> = Vec::new();
        for _ in 0..g.gen_in(0..60) {
            match arb_op(g) {
                Op::Deliver { src, tag } => {
                    seq += 1;
                    let fast_m = fast.deliver(env(src, tag, seq)).map(|(p, _)| p.req);
                    let naive_m = naive.deliver(env(src, tag, seq));
                    assert_eq!(fast_m, naive_m, "deliver diverged");
                }
                Op::Post { src, tag } => {
                    req += 1;
                    let fast_m = fast
                        .post(recv(req, src, tag))
                        .map(|e| (e.src, e.tag, e.seq));
                    let naive_m = naive.post(recv(req, src, tag));
                    assert_eq!(fast_m, naive_m, "post diverged");
                    if fast_m.is_none() {
                        posted_reqs.push(req);
                    }
                }
                Op::Cancel { nth_post } => {
                    if posted_reqs.is_empty() {
                        continue;
                    }
                    let id = posted_reqs[nth_post % posted_reqs.len()];
                    let a = fast.cancel_posted(id);
                    let b = naive.cancel(id);
                    assert_eq!(a, b, "cancel diverged");
                }
            }
            assert_eq!(fast.unexpected_len(), naive.unexpected.len());
            assert_eq!(fast.posted_len(), naive.posted.len());
        }
    });
}
