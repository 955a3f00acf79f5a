//! The server's one channel type: an unbounded FIFO **MPSC** queue,
//! used for worker ingress, per-connection responses and the
//! acceptor → io-thread hand-off. It is `std::sync::mpsc` behind the
//! three names the server (and `benchmark/`) use, with the two
//! behaviours the server relies on fixed in one place: `send` cannot
//! fail and `recv` never blocks.
//!
//! Why nothing cleverer: once the workers batch, the queue that feeds
//! them is not where the time goes, and on the benchmark's `queue.*`
//! rungs `std`'s channel moved a message in 89 ns against 246 ns for
//! the hand-rolled wait-free queue it replaced (ARCHITECTURE.md,
//! "Ingress queues").

use std::sync::mpsc;

/// Producer handle: cloneable, shareable across threads.
pub struct Sender<T>(mpsc::Sender<T>);

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        Sender(self.0.clone())
    }
}

/// Consumer handle: exactly one exists per queue.
pub struct Receiver<T>(mpsc::Receiver<T>);

/// Create a queue, returning the producer and consumer ends.
pub fn channel<T: Send>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    (Sender(tx), Receiver(rx))
}

impl<T: Send> Sender<T> {
    /// Enqueue one value. Values from one producer arrive in the order
    /// that producer sent them.
    ///
    /// A send to a queue whose [`Receiver`] is gone **drops the value**
    /// — the `SendError` is discarded on purpose. Both cases in the
    /// server are ones where nobody will ever read the message: a
    /// worker answering a connection its io thread already reaped, and
    /// an io thread routing to a worker that exited at shutdown.
    /// Dropping the frame at once beats queueing it until the last
    /// sender lets go.
    pub fn send(&self, val: T) {
        let _ = self.0.send(val);
    }
}

impl<T: Send> Receiver<T> {
    /// Dequeue the next value without blocking; `None` when the queue
    /// is empty right now (or every [`Sender`] is gone and it is
    /// drained — the server's loops poll a shutdown flag, so they need
    /// not tell the two apart).
    pub fn recv(&mut self) -> Option<T> {
        self.0.try_recv().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// How many clones of `token` are alive inside queues: the tests'
    /// drop counter (a payload is one `Arc` clone).
    fn live(token: &Arc<()>) -> usize {
        Arc::strong_count(token) - 1
    }

    /// Values arrive in send order, across many of `std`'s internal
    /// 31-slot blocks, and an empty queue reads `None` without blocking.
    #[test]
    fn fifo_across_segment_boundaries() {
        let (tx, mut rx) = channel::<u64>();
        assert_eq!(rx.recv(), None);
        for i in 0..785 {
            tx.send(i);
        }
        for i in 0..785 {
            assert_eq!(rx.recv(), Some(i));
        }
        assert_eq!(rx.recv(), None);
    }

    /// N producers race; the consumer must see every value exactly once,
    /// and each producer's own values in the order it sent them — the
    /// server's per-connection ordering contract.
    #[test]
    fn mpsc_no_loss_no_dup_per_producer_fifo() {
        const PRODUCERS: u64 = 4;
        const PER: u64 = 5_000;
        let (tx, mut rx) = channel::<u64>();
        std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        tx.send(p << 32 | i);
                    }
                });
            }
            s.spawn(move || {
                let mut last_per: [Option<u64>; PRODUCERS as usize] = [None; PRODUCERS as usize];
                let mut seen = 0u64;
                while seen < PRODUCERS * PER {
                    match rx.recv() {
                        Some(v) => {
                            seen += 1;
                            let (p, i) = (v >> 32, v & 0xFFFF_FFFF);
                            let prev = last_per[p as usize].replace(i);
                            // Per-producer FIFO: strictly ascending.
                            assert!(
                                prev.map_or(i == 0, |prev| i == prev + 1),
                                "p{p}: {prev:?} -> {i}"
                            );
                        }
                        None => std::thread::yield_now(),
                    }
                }
                assert_eq!(rx.recv(), None);
            });
        });
    }

    /// Unconsumed values are dropped exactly once with the queue.
    #[test]
    fn drop_frees_unconsumed_values() {
        let token = Arc::new(());
        {
            let (tx, mut rx) = channel();
            for _ in 0..296 {
                tx.send(Arc::clone(&token));
            }
            for _ in 0..10 {
                drop(rx.recv().unwrap());
            }
            assert_eq!(live(&token), 286);
        }
        assert_eq!(live(&token), 0, "queue drop must free the backlog");
    }

    /// The reaped-connection case: the consumer is gone, a producer
    /// still holds its end. `send` must not panic, and must drop the
    /// value rather than park it where nobody will read it.
    #[test]
    fn send_after_receiver_dropped_drops_the_value() {
        let token = Arc::new(());
        let (tx, rx) = channel();
        tx.send(Arc::clone(&token));
        drop(rx);
        assert_eq!(live(&token), 0, "receiver drop frees what was queued");
        tx.send(Arc::clone(&token));
        assert_eq!(live(&token), 0, "a send with no receiver frees its value at once");
    }
}
