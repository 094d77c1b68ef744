//! In-process message fabric for logical ranks.
//!
//! Ranks exchange real serialized bytes over crossbeam channels: tagged
//! point-to-point sends carry the bounds allreduce, particle exchange,
//! boundary-tree allgather and LETs of §III-B2, plus membership gossip.
//! Channels are FIFO per (sender, receiver) pair and unbounded, so a send
//! never blocks. The cluster drives every rank from one thread in rank
//! order — sends, then non-blocking drains — which is what makes a run
//! deterministic; validation and retransmission sit one layer up, in
//! [`exchange_validated`](crate::fault::exchange_validated).

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};

/// What a message carries (drives receive-side dispatch).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Serialized boundary tree (allgather phase).
    Boundary,
    /// Migrating particles (exchange phase).
    Particles,
    /// A dedicated Local Essential Tree.
    Let,
    /// Small control/reduction payloads (bounding boxes, samples, cuts).
    Control,
    /// Membership view proposals (join/leave/death gossip rounds).
    View,
}

/// A tagged message between ranks.
#[derive(Clone, Debug)]
pub struct Message {
    /// Sending rank.
    pub from: usize,
    /// Payload semantics.
    pub kind: MsgKind,
    /// Serialized payload.
    pub payload: Bytes,
}

/// One rank's handle into the fabric.
pub struct Endpoint {
    /// This rank's id.
    pub rank: usize,
    /// Number of ranks.
    pub world: usize,
    senders: Vec<Sender<Message>>,
    receiver: Receiver<Message>,
}

/// Construct the fully connected fabric.
pub struct Fabric;

impl Fabric {
    /// Create `p` endpoints, one per logical rank.
    pub fn new(p: usize) -> Vec<Endpoint> {
        assert!(p > 0);
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(rank, receiver)| Endpoint {
                rank,
                world: p,
                senders: txs.clone(),
                receiver,
            })
            .collect()
    }
}

impl Endpoint {
    /// Send `payload` to rank `to`.
    pub fn send(&self, to: usize, kind: MsgKind, payload: Bytes) {
        let msg = Message {
            from: self.rank,
            kind,
            payload,
        };
        self.senders[to].send(msg).expect("receiver dropped");
    }

    /// Non-blocking receive: the next message if one is queued.
    pub fn try_recv(&self) -> Option<Message> {
        self.receiver.try_recv().ok()
    }
}
