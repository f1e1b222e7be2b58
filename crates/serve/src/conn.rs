//! Per-connection write-side state machine for the reactor.
//!
//! A [`Conn`] is the shared half of one accepted connection: the
//! nonblocking socket plus a bounded outgoing frame queue. The poller
//! thread that owns the connection reads from the socket and flushes the
//! queue on write readiness; executor threads (batch demux, cache hits)
//! enqueue response frames from anywhere via [`Conn::send_frames`] — an
//! opportunistic nonblocking write when the queue is empty, otherwise a
//! park under the connection's `write_buffer_bytes` cap with write
//! interest armed. No thread ever blocks on a peer's socket.
//!
//! Backpressure contract:
//!
//! * a response that cannot be written immediately parks in the queue and
//!   is drained by the owning poller when the socket turns writable;
//! * when parked bytes cross the **high-water mark** (half the cap) the
//!   poller stops *reading* the connection — pipelined requests back up
//!   into kernel buffers and ultimately block the client's sends;
//! * reading resumes once the queue drains to the **low-water mark**
//!   (a quarter of the cap);
//! * if parked bytes would exceed the cap anyway (responses to requests
//!   decoded before the pause), the connection is severed — a client that
//!   never reads loses its connection instead of a server buffer growing
//!   without bound.

use crate::stats::ServeCounters;
use crate::sys::{Epoll, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use relserve_runtime::FaultInjector;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// Outcome of a poller-side flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flush {
    /// Queue drained as far as the socket allowed; connection healthy.
    Ok,
    /// The peer is gone (or the connection was severed); close it.
    Closed,
}

struct WriteQueue {
    bufs: VecDeque<Vec<u8>>,
    /// Bytes of the front buffer already written.
    head_off: usize,
    /// Total unwritten bytes across `bufs`.
    parked: usize,
    /// Interest mask currently armed in epoll.
    interest: u32,
    /// False once the fd left the epoll set (close path).
    registered: bool,
    severed: bool,
    read_paused: bool,
}

/// One live connection, shared between its owning poller (reads, flushes,
/// close) and any thread completing responses for it (writes).
pub(crate) struct Conn {
    id: u64,
    sock: TcpStream,
    epoll: Arc<Epoll>,
    /// Hard cap on parked response bytes; crossing it severs.
    write_limit: usize,
    counters: Arc<ServeCounters>,
    /// Seeded chaos stream; `Some` only under socket fault injection.
    faults: Option<FaultInjector>,
    wq: Mutex<WriteQueue>,
}

impl Conn {
    pub fn new(
        id: u64,
        sock: TcpStream,
        epoll: Arc<Epoll>,
        write_limit: usize,
        counters: Arc<ServeCounters>,
        faults: Option<FaultInjector>,
    ) -> Conn {
        Conn {
            id,
            sock,
            epoll,
            write_limit,
            counters,
            faults,
            wq: Mutex::new(WriteQueue {
                bufs: VecDeque::new(),
                head_off: 0,
                parked: 0,
                interest: 0,
                registered: false,
                severed: false,
                read_paused: false,
            }),
        }
    }

    pub fn id(&self) -> u64 {
        self.id
    }

    /// The poller-owned read half of the socket.
    pub fn sock(&self) -> &TcpStream {
        &self.sock
    }

    /// Parked bytes above this arm read-side backpressure.
    pub fn high_water(&self) -> usize {
        self.write_limit / 2
    }

    /// Reads resume once parked bytes fall back to this.
    pub fn low_water(&self) -> usize {
        self.write_limit / 4
    }

    pub fn parked(&self) -> usize {
        self.wq.lock().expect("conn lock poisoned").parked
    }

    pub fn reads_paused(&self) -> bool {
        self.wq.lock().expect("conn lock poisoned").read_paused
    }

    /// Register the socket with the owning poller's epoll set. Called once
    /// by the adopting poller before any event can fire.
    pub fn register(&self) -> std::io::Result<()> {
        let mut q = self.wq.lock().expect("conn lock poisoned");
        let mask = EPOLLIN | EPOLLRDHUP;
        self.epoll
            .add(std::os::fd::AsRawFd::as_raw_fd(&self.sock), mask, self.id)?;
        q.registered = true;
        q.interest = mask;
        Ok(())
    }

    /// The interest mask this queue state wants armed.
    fn desired_mask(q: &WriteQueue) -> u32 {
        let mut mask = EPOLLRDHUP;
        if !q.read_paused {
            mask |= EPOLLIN;
        }
        if q.parked > 0 {
            mask |= EPOLLOUT;
        }
        mask
    }

    fn update_interest(&self, q: &mut WriteQueue) {
        if !q.registered || q.severed {
            return;
        }
        let want = Self::desired_mask(q);
        if want != q.interest
            && self
                .epoll
                .modify(std::os::fd::AsRawFd::as_raw_fd(&self.sock), want, self.id)
                .is_ok()
        {
            q.interest = want;
        }
    }

    /// Mark the connection dead: drop parked bytes, shut the socket down
    /// so the owning poller observes HUP and reaps the table entry.
    fn sever_locked(&self, q: &mut WriteQueue) {
        if q.severed {
            return;
        }
        q.severed = true;
        self.counters
            .reactor
            .parked_bytes
            .fetch_sub(q.parked as u64, Ordering::Relaxed);
        q.parked = 0;
        q.head_off = 0;
        q.bufs.clear();
        let _ = self.sock.shutdown(Shutdown::Both);
    }

    /// Chaos draw: sever the connection as if the peer reset it while the
    /// server was mid-write. Returns true when the reset fired; callers
    /// must then report the write as failed.
    fn inject_write_reset(&self, q: &mut WriteQueue) -> bool {
        let Some(f) = &self.faults else {
            return false;
        };
        if !f.should_reset_write() {
            return false;
        }
        self.counters
            .faults
            .write_resets
            .fetch_add(1, Ordering::Relaxed);
        self.sever_locked(q);
        true
    }

    /// Poller-side teardown: deregister, sever, and release buffers. Safe
    /// to call at most once per table entry; late responders see the
    /// severed flag and drop their frames.
    pub fn close(&self) {
        let mut q = self.wq.lock().expect("conn lock poisoned");
        if q.registered {
            let _ = self
                .epoll
                .delete(std::os::fd::AsRawFd::as_raw_fd(&self.sock));
            q.registered = false;
        }
        self.sever_locked(&mut q);
    }

    /// Stop reading this connection (backpressure). Idempotent.
    pub fn pause_reads(&self) {
        let mut q = self.wq.lock().expect("conn lock poisoned");
        if q.severed || q.read_paused {
            return;
        }
        q.read_paused = true;
        self.counters
            .reactor
            .read_pauses
            .fetch_add(1, Ordering::Relaxed);
        self.update_interest(&mut q);
    }

    /// Resume reading after the queue drained. Idempotent.
    pub fn resume_reads(&self) {
        let mut q = self.wq.lock().expect("conn lock poisoned");
        if q.severed || !q.read_paused {
            return;
        }
        q.read_paused = false;
        self.update_interest(&mut q);
    }

    /// Queue `frames` whole wire frames (each length prefix + payload,
    /// back to back in `buf`) for this connection: every response a fused
    /// batch owes one connection travels as one buffer, one lock and one
    /// `write`.
    ///
    /// Fast path: with an empty queue the buffer is written nonblockingly
    /// right here — the common case for a client that keeps reading. A
    /// remainder (or any buffer behind one) parks under the write cap with
    /// write interest armed; overflowing the cap severs the connection.
    /// Returns false when the frames could not be delivered or parked.
    pub fn send_frames(&self, buf: Vec<u8>, frames: u64) -> bool {
        let mut q = self.wq.lock().expect("conn lock poisoned");
        if q.severed {
            self.counters
                .reactor
                .dropped_responses
                .fetch_add(frames, Ordering::Relaxed);
            return false;
        }
        if self.inject_write_reset(&mut q) {
            return false;
        }
        let mut off = 0;
        if q.bufs.is_empty() {
            loop {
                match (&self.sock).write(&buf[off..]) {
                    Ok(0) => {
                        self.sever_locked(&mut q);
                        return false;
                    }
                    Ok(n) => {
                        off += n;
                        if off == buf.len() {
                            return true;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.sever_locked(&mut q);
                        return false;
                    }
                }
            }
        }
        let remaining = buf.len() - off;
        if q.parked + remaining > self.write_limit {
            self.counters
                .reactor
                .overflow_severed
                .fetch_add(1, Ordering::Relaxed);
            self.sever_locked(&mut q);
            return false;
        }
        // A partial write only happens into an empty queue, so the buffer
        // becomes the head and its written prefix is the head offset.
        if off > 0 {
            q.head_off = off;
        }
        q.parked += remaining;
        q.bufs.push_back(buf);
        self.counters
            .reactor
            .parked_bytes
            .fetch_add(remaining as u64, Ordering::Relaxed);
        self.counters
            .reactor
            .response_parks
            .fetch_add(1, Ordering::Relaxed);
        self.update_interest(&mut q);
        true
    }

    /// Drain the parked queue as far as the socket allows. Called by the
    /// owning poller on write readiness.
    pub fn flush(&self) -> Flush {
        let mut q = self.wq.lock().expect("conn lock poisoned");
        if q.severed {
            return Flush::Closed;
        }
        // A reset here lands mid-frame whenever `head_off > 0` — the peer
        // vanishes with a partially written response on the wire.
        if self.inject_write_reset(&mut q) {
            return Flush::Closed;
        }
        while let Some(head) = q.bufs.front() {
            let from = q.head_off;
            match (&self.sock).write(&head[from..]) {
                Ok(0) => {
                    self.sever_locked(&mut q);
                    return Flush::Closed;
                }
                Ok(n) => {
                    q.head_off += n;
                    q.parked -= n;
                    self.counters
                        .reactor
                        .parked_bytes
                        .fetch_sub(n as u64, Ordering::Relaxed);
                    if q.head_off == q.bufs.front().map_or(0, |b| b.len()) {
                        q.bufs.pop_front();
                        q.head_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.sever_locked(&mut q);
                    return Flush::Closed;
                }
            }
        }
        self.update_interest(&mut q);
        Flush::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{self, Response};
    use std::net::TcpListener;

    /// A registered server-side `Conn` and the peer's end of its socket.
    fn pair(write_limit: usize) -> (Conn, TcpStream, Arc<ServeCounters>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (sock, _) = listener.accept().unwrap();
        sock.set_nonblocking(true).unwrap();
        let counters = Arc::new(ServeCounters::default());
        let epoll = Arc::new(Epoll::new().unwrap());
        let conn = Conn::new(1, sock, epoll, write_limit, Arc::clone(&counters), None);
        conn.register().unwrap();
        (conn, peer, counters)
    }

    /// `n` response frames with ids from `first`, as one batch's buffer.
    fn batch(first: u64, n: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        for id in first..first + n {
            let resp = Response::Infer {
                id,
                queue_wait_micros: 0,
                cached: false,
                model_used: "Fraud-FC-256".into(),
                degraded_to: None,
                predictions: vec![1],
            };
            wire::encode_response_frame_into(&mut buf, &resp).unwrap();
        }
        buf
    }

    #[test]
    fn coalesced_frames_keep_order_and_ids_across_a_parked_partial_write() {
        const PER_BATCH: u64 = 4096;
        let (conn, peer, counters) = pair(256 << 20);
        // The peer reads nothing: batches fill the socket buffers until one
        // is cut mid-buffer and its remainder parks.
        let mut next = 1u64;
        while conn.parked() == 0 {
            assert!(conn.send_frames(batch(next, PER_BATCH), PER_BATCH));
            next += PER_BATCH;
        }
        assert!(
            conn.wq.lock().unwrap().head_off > 0,
            "the parked batch was written in part"
        );
        // Two more park whole behind the remainder.
        for _ in 0..2 {
            assert!(conn.send_frames(batch(next, PER_BATCH), PER_BATCH));
            next += PER_BATCH;
        }
        let snap = counters.snapshot();
        assert_eq!(snap.reactor.response_parks, 3, "one park per batch");
        assert_eq!(snap.reactor.parked_bytes, conn.parked() as u64);

        let total = next - 1;
        let reader = std::thread::spawn(move || {
            let mut peer = std::io::BufReader::new(peer);
            (1..=total)
                .map(|_| {
                    let payload = wire::read_frame(&mut peer).unwrap().expect("frame");
                    wire::decode_response(&payload).unwrap().id()
                })
                .collect::<Vec<u64>>()
        });
        // The owning poller's part: flush on writability until drained.
        while conn.parked() > 0 {
            assert_eq!(conn.flush(), Flush::Ok);
            std::thread::yield_now();
        }
        let ids = reader.join().unwrap();
        assert!(
            ids.iter().copied().eq(1..=total),
            "every frame once, in order"
        );
        assert_eq!(counters.snapshot().reactor.parked_bytes, 0);
    }

    #[test]
    fn overflowing_the_write_cap_severs_once_and_drops_later_batches() {
        let (conn, _peer, counters) = pair(4096);
        let mut next = 1u64;
        // A never-reading peer: the cap is crossed after the socket fills.
        while conn.send_frames(batch(next, 64), 64) {
            next += 64;
        }
        assert!(!conn.send_frames(batch(next, 7), 7));
        let snap = counters.snapshot();
        assert_eq!(snap.reactor.overflow_severed, 1);
        assert_eq!(snap.reactor.dropped_responses, 7, "counted per frame");
        assert_eq!(snap.reactor.parked_bytes, 0);
        assert_eq!(conn.flush(), Flush::Closed);
    }
}
