//! The closed-loop client: one connection, and the next request line is
//! handed to the service only after it has flushed its reply to the
//! previous one — the way `helio-fleet` is used.
//!
//! [`helio_fleet::serve_with`] pulls lines from a `BufRead` and pushes
//! reply lines into a `Write`. [`Client`] is that reader: it generates
//! each line when the service asks for it and stamps the handout.
//! [`Sink`] is the writer: it keeps the current request's reply in one
//! reused buffer and stamps every flush (the
//! service flushes once, after a request's last reply line). A request
//! is timed from its handout to the last flush before the service asks
//! for the next line.

use std::cell::RefCell;
use std::io::{self, BufRead, Read, Write};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// One answered request, as the loop saw it.
pub struct Answered<'a> {
    /// 1-based request ordinal (the config line is not counted).
    pub ordinal: u64,
    /// The request line the service received (without its newline).
    pub line: &'a [u8],
    /// Every reply byte the service flushed for it.
    pub reply: &'a [u8],
    /// Handout to last flush.
    pub latency: Duration,
}

/// What drives a session: the lines to send and what to do with each
/// answered request. Runs on the service's thread, between requests,
/// so nothing it does is inside any request's timed window.
pub trait Traffic {
    /// The request line with this 1-based ordinal, or `None` to close
    /// the stream.
    fn next_line(&mut self, ordinal: u64) -> Option<String>;

    /// Called once per answered request, before the next line is
    /// generated.
    fn answered(&mut self, done: Answered<'_>);
}

#[derive(Default)]
struct Clock {
    reply: Vec<u8>,
    last_flush: Option<Instant>,
}

/// The writer half: buffers reply bytes, stamps flushes.
pub struct Sink(Rc<RefCell<Clock>>);

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().reply.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.borrow_mut().last_flush = Some(Instant::now());
        Ok(())
    }
}

/// The reader half: hands out the config line, then request lines
/// from a [`Traffic`].
pub struct Client<'d, D: Traffic> {
    traffic: &'d mut D,
    clock: Rc<RefCell<Clock>>,
    config: Option<String>,
    line: Vec<u8>,
    pos: usize,
    /// Ordinal of the line in `line` (0 = the config line).
    ordinal: u64,
    handed: Option<Instant>,
    setup: Option<Duration>,
    eof: bool,
}

impl<'d, D: Traffic> Client<'d, D> {
    /// A client that opens with `config` and then asks `traffic` for
    /// request lines.
    pub fn new(config: String, traffic: &'d mut D) -> (Self, Sink) {
        let clock = Rc::new(RefCell::new(Clock::default()));
        let sink = Sink(Rc::clone(&clock));
        let client = Self {
            traffic,
            clock,
            config: Some(config),
            line: Vec::new(),
            pos: 0,
            ordinal: 0,
            handed: None,
            setup: None,
            eof: false,
        };
        (client, sink)
    }

    /// Config line handed over → service asks for request 1; `None`
    /// until the service has asked.
    pub fn setup(&self) -> Option<Duration> {
        self.setup
    }

    /// The service asked for the line after `self.ordinal`.
    fn advance(&mut self) {
        let now = Instant::now();
        let handed = self.handed.take();
        if self.ordinal == 0 {
            if let Some(config) = self.config.take() {
                self.load(config);
                return;
            }
            self.setup = handed.map(|t| now.duration_since(t));
        } else if let Some(t) = handed {
            let mut clock = self.clock.borrow_mut();
            let flushed = clock.last_flush.take().unwrap_or(now);
            let reply = std::mem::take(&mut clock.reply);
            drop(clock);
            self.traffic.answered(Answered {
                ordinal: self.ordinal,
                line: &self.line[..self.line.len() - 1],
                reply: &reply,
                latency: flushed.saturating_duration_since(t),
            });
            let mut reply = reply;
            reply.clear();
            self.clock.borrow_mut().reply = reply;
        }
        self.ordinal += 1;
        match self.traffic.next_line(self.ordinal) {
            Some(line) => self.load(line),
            None => {
                self.line.clear();
                self.pos = 0;
                self.eof = true;
            }
        }
    }

    fn load(&mut self, mut line: String) {
        line.push('\n');
        self.line = line.into_bytes();
        self.pos = 0;
        self.handed = Some(Instant::now());
    }
}

impl<D: Traffic> Read for Client<'_, D> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let avail = self.fill_buf()?;
        let n = avail.len().min(buf.len());
        buf[..n].copy_from_slice(&avail[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl<D: Traffic> BufRead for Client<'_, D> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.line.len() && !self.eof {
            self.advance();
        }
        Ok(&self.line[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos = (self.pos + amt).min(self.line.len());
    }
}
