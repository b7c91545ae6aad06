//! Open-loop load generation with due-time accounting.
//!
//! Requests are due on a fixed schedule, independent of when earlier ones
//! complete. The sender keeps several requests in flight on one connection
//! (the protocol echoes request ids) and sends each as soon as it is due.
//! Latency runs from the *due* time, so a stall also counts against every
//! request that came due while it lasted, whether it waited in the sender
//! or in the server. How late the sender itself ran is reported as lag.

use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use kbiplex::json::Json;
use mbpe_serve::{read_frame, write_frame, Request, Response, DEFAULT_MAX_FRAME};

use crate::trace::Tracer;

/// Due times of `count` requests at `rate_per_s`, starting `offset_ns` after
/// `start_ns` (all in ns).
pub fn schedule(start_ns: u64, offset_ns: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let period = 1e9 / rate_per_s;
    (0..count).map(|j| start_ns + offset_ns + (j as f64 * period) as u64).collect()
}

/// The transport the generator drives: a clock, a non-blocking send and a
/// wait for completions. Tests drive it with a simulated server.
pub trait Link {
    /// Current time, ns on the schedule's clock.
    fn now(&self) -> u64;
    /// Sends request `j`.
    fn send(&mut self, j: usize) -> Result<(), String>;
    /// Waits until `deadline` or until responses arrive, and returns the
    /// requests completed since the last call with their completion times.
    fn poll(&mut self, deadline: u64) -> Result<Vec<(usize, u64)>, String>;
}

/// Timing of one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Timing {
    /// When the request was due, ns.
    pub due: u64,
    /// When it was sent.
    pub sent: Option<u64>,
    /// When its response arrived.
    pub done: Option<u64>,
}

impl Timing {
    /// Latency from the due time, ns (`None` if it never completed).
    pub fn latency_ns(&self) -> Option<u64> {
        self.done.map(|d| d.saturating_sub(self.due))
    }

    /// How late the sender ran, ns.
    pub fn lag_ns(&self) -> Option<u64> {
        self.sent.map(|s| s.saturating_sub(self.due))
    }
}

/// Sends every request when it is due and collects completions until all
/// have arrived or `drain_ns` has passed after the last due time. A failed
/// send or poll ends the run; requests left without a response stay
/// incomplete and count as failed.
pub fn drive<L: Link>(link: &mut L, dues: &[u64], drain_ns: u64) -> (Vec<Timing>, Option<String>) {
    let mut timings: Vec<Timing> =
        dues.iter().map(|&due| Timing { due, ..Timing::default() }).collect();
    let mut next = 0;
    let mut outstanding = 0usize;
    let give_up = dues.last().copied().unwrap_or(0) + drain_ns;
    loop {
        let now = link.now();
        if next < dues.len() && now >= dues[next] {
            if let Err(e) = link.send(next) {
                return (timings, Some(e));
            }
            timings[next].sent = Some(link.now());
            next += 1;
            outstanding += 1;
            continue;
        }
        if next == dues.len() && (outstanding == 0 || now >= give_up) {
            return (timings, None);
        }
        let deadline = if next < dues.len() { dues[next] } else { give_up };
        match link.poll(deadline) {
            Ok(done) => {
                for (j, t) in done {
                    if let Some(slot) = timings.get_mut(j) {
                        if slot.done.is_none() && slot.sent.is_some() {
                            slot.done = Some(t);
                            outstanding -= 1;
                        }
                    }
                }
            }
            Err(e) => return (timings, Some(e)),
        }
    }
}

/// A decoded response with the time spent decoding it.
#[derive(Debug)]
pub struct Received {
    /// The response.
    pub response: Response,
    /// Response decode time (`Json::parse` + `Response::from_json`), ns.
    pub decode_ns: u64,
}

/// A [`Link`] over one TCP connection to the service, pipelining requests
/// built by `make(j)` and pairing responses by id.
pub struct TcpLink<F: FnMut(usize) -> Request> {
    origin: Instant,
    reader: TcpStream,
    writer: TcpStream,
    buf: Vec<u8>,
    make: F,
    in_flight: HashMap<u64, usize>,
    /// Responses by request index.
    pub received: HashMap<usize, Received>,
    /// Spans of this connection's requests.
    pub tracer: Tracer,
}

impl<F: FnMut(usize) -> Request> TcpLink<F> {
    /// Wraps a connected stream; `tracer` records the spans of traced
    /// requests when it is enabled.
    pub fn new(
        stream: TcpStream,
        origin: Instant,
        make: F,
        tracer: Tracer,
    ) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(TcpLink {
            origin,
            reader: stream,
            writer,
            buf: Vec::with_capacity(1 << 16),
            make,
            in_flight: HashMap::new(),
            received: HashMap::new(),
            tracer,
        })
    }

    /// Whether request `j` records spans (every other pair, so that the
    /// traced run also measures untraced requests of both kinds).
    pub fn traced(&self, j: usize) -> bool {
        self.tracer.enabled() && (j / 2) % 2 == 0
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Decodes every complete frame in the buffer.
    fn take_frames(&mut self, arrived: Instant, out: &mut Vec<(usize, u64)>) -> Result<(), String> {
        loop {
            if self.buf.len() < 4 {
                return Ok(());
            }
            let len =
                u32::from_be_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if self.buf.len() < 4 + len {
                return Ok(());
            }
            let payload = read_frame(&mut &self.buf[..4 + len], DEFAULT_MAX_FRAME)
                .map_err(|e| format!("bad frame: {e}"))?
                .ok_or("empty frame")?;
            self.buf.drain(..4 + len);
            let t0 = Instant::now();
            let text =
                std::str::from_utf8(&payload).map_err(|e| format!("response not UTF-8: {e}"))?;
            let doc = Json::parse(text).map_err(|e| e.0)?;
            let response = Response::from_json(&doc).map_err(|e| e.0)?;
            let decode = t0.elapsed();
            let Some(j) = self.in_flight.remove(&response.id()) else {
                return Err(format!("response to unknown request id {}", response.id()));
            };
            if self.traced(j) {
                self.tracer.record("wire.decode", j as u64, t0, t0 + decode);
            }
            let done = self.ns(arrived);
            self.received.insert(j, Received { response, decode_ns: decode.as_nanos() as u64 });
            out.push((j, done));
        }
    }
}

impl<F: FnMut(usize) -> Request> Link for TcpLink<F> {
    fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    fn send(&mut self, j: usize) -> Result<(), String> {
        let req = (self.make)(j);
        let id = match &req {
            Request::Query(q) => q.id,
            Request::Update { id, .. } | Request::Ping { id } => *id,
        };
        let t0 = Instant::now();
        let bytes = req.to_json().encode();
        let encode = t0.elapsed();
        let t1 = Instant::now();
        write_frame(&mut self.writer, bytes.as_bytes()).map_err(|e| format!("send: {e}"))?;
        if self.traced(j) {
            self.tracer.record("wire.encode", j as u64, t0, t0 + encode);
            self.tracer.record("frame.write", j as u64, t1, Instant::now());
        }
        self.in_flight.insert(id, j);
        Ok(())
    }

    fn poll(&mut self, deadline: u64) -> Result<Vec<(usize, u64)>, String> {
        let mut out = Vec::new();
        let now = self.now();
        let wait =
            Duration::from_nanos(deadline.saturating_sub(now)).max(Duration::from_micros(50));
        self.reader.set_read_timeout(Some(wait)).map_err(|e| e.to_string())?;
        let mut chunk = [0u8; 1 << 16];
        match self.reader.read(&mut chunk) {
            Ok(0) => return Err("server closed the connection".to_string()),
            Ok(n) => {
                let arrived = Instant::now();
                self.buf.extend_from_slice(&chunk[..n]);
                self.take_frames(arrived, &mut out)?;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A serial server on a virtual clock: each request takes `service` ns
    /// after the previous one finished, plus `stall` ns for request
    /// `stall_at`. Sending is instant.
    struct SimServer {
        now: u64,
        free_at: u64,
        service: u64,
        stall_at: usize,
        stall: u64,
        pending: Vec<(usize, u64)>,
    }

    impl Link for SimServer {
        fn now(&self) -> u64 {
            self.now
        }

        fn send(&mut self, j: usize) -> Result<(), String> {
            let start = self.now.max(self.free_at);
            let extra = if j == self.stall_at { self.stall } else { 0 };
            self.free_at = start + self.service + extra;
            self.pending.push((j, self.free_at));
            Ok(())
        }

        fn poll(&mut self, deadline: u64) -> Result<Vec<(usize, u64)>, String> {
            let next = self.pending.iter().map(|p| p.1).min().unwrap_or(u64::MAX);
            self.now = deadline.min(next).max(self.now);
            let now = self.now;
            let (done, rest): (Vec<_>, Vec<_>) = self.pending.iter().partition(|p| p.1 <= now);
            self.pending = rest;
            Ok(done)
        }
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn schedule_is_fixed_rate() {
        assert_eq!(schedule(100, 5, 1000.0, 3), vec![105, 105 + MS, 105 + 2 * MS]);
    }

    #[test]
    fn a_single_stall_inflates_every_request_due_during_it() {
        // One request every 10 ms, 2 ms of service, request 5 stalls 50 ms.
        let dues = schedule(0, 0, 100.0, 20);
        let mut sim = SimServer {
            now: 0,
            free_at: 0,
            service: 2 * MS,
            stall_at: 5,
            stall: 50 * MS,
            pending: vec![],
        };
        let (t, err) = drive(&mut sim, &dues, 1000 * MS);
        assert!(err.is_none());
        let lat: Vec<u64> = t.iter().map(|x| x.latency_ns().unwrap()).collect();
        // Before the stall: service time only.
        assert!(lat[..5].iter().all(|&l| l == 2 * MS));
        // The stalled request itself.
        assert_eq!(lat[5], 52 * MS);
        // Requests 6..10 came due while request 5 was stuck (50..102 ms):
        // each waits for the stall to clear, counted from its due time.
        for (j, &l) in lat.iter().enumerate().take(11).skip(6) {
            let due = j as u64 * 10 * MS;
            let expected = 52 * MS + 50 * MS + (j as u64 - 5) * 2 * MS - due;
            assert_eq!(l, expected, "request {j}");
            assert!(l > 2 * MS);
        }
        // Afterwards the backlog drains and latency returns to service time.
        assert_eq!(lat[19], 2 * MS);
        // The sender itself never ran late: the open loop kept sending.
        assert!(t.iter().all(|x| x.lag_ns() == Some(0)));
    }

    #[test]
    fn unanswered_requests_stay_incomplete() {
        let dues = schedule(0, 0, 100.0, 3);
        let mut sim = SimServer {
            now: 0,
            free_at: 0,
            service: MS,
            stall_at: 1,
            stall: 10_000 * MS,
            pending: vec![],
        };
        let (t, err) = drive(&mut sim, &dues, 100 * MS);
        assert!(err.is_none());
        assert!(t[0].done.is_some());
        assert!(t[1].done.is_none() && t[2].done.is_none());
    }
}
