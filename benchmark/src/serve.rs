//! `serve_mix`: an in-process daemon and two closed-loop HTTP clients
//! replaying a seeded sequence of small jobs.

use crate::batch::Clock;
use crate::layers::{dispatch_waves, Layers};
use crate::spans::{Source, Spans};
use crate::spec::{Scale, WORKERS};
use crate::stats::{median, percentile};
use crate::sys;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use supmr::runtime::{Input, Job, JobReport};
use supmr::{Chunking, PoolMode};
use supmr_apps::WordCount;
use supmr_metrics::{Json, Phase};
use supmr_serve::{reference_output, Daemon, JobSpec, ServeConfig};
use supmr_storage::MemSource;
use supmr_workloads::{TextGen, TextGenConfig};

/// A client gives up on a job after this long; the job counts as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
const POLL_INTERVAL: Duration = Duration::from_millis(5);
const CLIENTS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Class {
    WordCount,
    Grep,
    TeraSort,
}

/// One entry of the replayed sequence.
#[derive(Debug, Clone)]
struct Submission {
    class: Class,
    body: String,
    input_bytes: u64,
    /// The digest `supmr_serve::reference_output` gives for the spec.
    digest: String,
}

/// SplitMix64: the benchmark's own generator for the submission
/// sequence, so the sequence is a function of `--seed` alone.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The daemon, started, with its sequence and reference digests ready
/// and one job of each class already served.
pub struct Served {
    scale: Scale,
    seed: u64,
    daemon: Option<Daemon>,
    addr: SocketAddr,
    /// The seeded sequence, one cycle after the other.
    cycles: Vec<Vec<Submission>>,
}

impl Drop for Served {
    fn drop(&mut self) {
        // Stops the scheduler and the accept loop and releases the port.
        if let Some(daemon) = self.daemon.take() {
            daemon.stop(Duration::from_secs(30));
        }
    }
}

fn spec_body(
    class: Class,
    generator_seed: u64,
    hash_seed: u64,
    scale: &Scale,
    priority: &str,
) -> String {
    let (app, bytes, extra) = match class {
        Class::WordCount => ("wordcount", scale.serve_job_bytes, String::new()),
        // The two most frequent words of the generator's vocabulary: every
        // input holds both, so a grep never comes back empty.
        Class::Grep => {
            let vocabulary = TextGen::new(TextGenConfig::default());
            let words = vocabulary.words();
            (
                "grep",
                2 * scale.serve_job_bytes,
                format!(r#","patterns":["{}","{}"]"#, words[0], words[1]),
            )
        }
        Class::TeraSort => ("terasort", 2 * scale.serve_job_bytes, String::new()),
    };
    format!(
        r#"{{"app":"{app}","generate":{bytes},"seed":{generator_seed},"workers":{WORKERS},"hash_seed":{hash_seed},"priority":"{priority}"{extra}}}"#
    )
}

impl Served {
    /// Everything before the timed pass: sequence, reference digests
    /// (one isolated run per distinct spec), daemon start, warm-up.
    pub fn set_up(seed: u64, scale: Scale) -> Result<Served, String> {
        let mut rng = SplitMix(seed);
        let mut digests: HashMap<(Class, u64), String> = HashMap::new();
        // Every cycle holds the same mix — 70 % word count, 20 % grep, 10 %
        // terasort; priorities high : normal : low = 1 : 2 : 1 — so cycles
        // are comparable; the seed decides the order, which job gets which
        // priority, and which of two generator seeds a job uses.
        let n = scale.serve_cycle;
        let (tera, grep) = ((n / 10).max(1), (n / 5).max(1));
        let mut classes = vec![Class::WordCount; n];
        classes[..tera].fill(Class::TeraSort);
        classes[tera..tera + grep].fill(Class::Grep);
        let mut priorities = vec!["normal"; n];
        priorities[..n / 4].fill("high");
        priorities[n / 4..n / 2].fill("low");
        let mut cycles = Vec::with_capacity(scale.serve_cycles);
        for _ in 0..scale.serve_cycles {
            rng.shuffle(&mut classes);
            rng.shuffle(&mut priorities);
            let mut cycle = Vec::with_capacity(n);
            for (&class, priority) in classes.iter().zip(&priorities) {
                let generator_seed = seed.wrapping_mul(2).wrapping_add(rng.below(2)) % (1 << 32);
                let body = spec_body(class, generator_seed, seed % (1 << 32), &scale, priority);
                let spec = JobSpec::from_json_bytes(body.as_bytes())
                    .map_err(|e| format!("the benchmark built a spec the daemon rejects: {e}"))?;
                let digest = match digests.get(&(class, generator_seed)) {
                    Some(digest) => digest.clone(),
                    None => {
                        let digest = reference_output(&spec)
                            .map_err(|e| format!("reference run of {body}: {e}"))?
                            .digest;
                        digests.insert((class, generator_seed), digest.clone());
                        digest
                    }
                };
                cycle.push(Submission { class, body, input_bytes: spec.input_bytes, digest });
            }
            cycles.push(cycle);
        }

        let daemon = Daemon::start(
            "127.0.0.1:0",
            ServeConfig {
                workers: WORKERS,
                max_concurrent: 2,
                queue_depth: 16,
                memory_budget: None,
                default_job_workers: WORKERS,
            },
        )
        .map_err(|e| format!("starting the daemon: {e}"))?;
        let addr = daemon.addr();
        let served = Served { scale, seed, daemon: Some(daemon), addr, cycles };

        // Warm-up: the first submission of each class.
        let mut seen = Vec::new();
        for submission in &served.cycles[0] {
            if !seen.contains(&submission.class) {
                seen.push(submission.class);
                let mut times = ClientTimes::default();
                serve_one(addr, submission, false, &mut times)
                    .map_err(|e| format!("warm-up job: {e:?}"))?;
            }
        }
        Ok(served)
    }
}

/// `(status code, body)` of one request on a fresh connection — the
/// daemon answers one request per connection and closes.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(JOB_TIMEOUT))?;
    stream.set_write_timeout(Some(JOB_TIMEOUT))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )?;
    // Half-close: the server drains the request side before it closes,
    // and would otherwise wait out a read timeout for this end to go.
    stream.shutdown(Shutdown::Write)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed HTTP response");
    let status = response.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or_else(bad)?;
    let (_, body) = response.split_once("\r\n\r\n").ok_or_else(bad)?;
    Ok((status, body.to_string()))
}

/// Client-side request timings in milliseconds.
#[derive(Debug, Default)]
struct ClientTimes {
    submit_ms: Vec<f64>,
    status_ms: Vec<f64>,
    scrape_ms: Vec<f64>,
    scrape_bytes_last: u64,
}

#[derive(Debug)]
enum Failure {
    /// 503: the admission queue was full.
    Rejected,
    Other(String),
}

/// One served job, as a client saw it.
#[derive(Debug, Clone, Copy)]
struct Served1 {
    class: Class,
    start: Instant,
    submit: Duration,
    latency: Duration,
    polls: u64,
    input_bytes: u64,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let clock = Instant::now();
    let out = f();
    (out, clock.elapsed())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Submit, poll to a terminal status, check the digest.
fn serve_one(
    addr: SocketAddr,
    submission: &Submission,
    scrape: bool,
    times: &mut ClientTimes,
) -> Result<Served1, Failure> {
    let other = |what: &str, e: &dyn std::fmt::Display| Failure::Other(format!("{what}: {e}"));
    let start = Instant::now();
    let (response, submit) = timed(|| http(addr, "POST", "/jobs", &submission.body));
    let (code, body) = response.map_err(|e| other("POST /jobs", &e))?;
    times.submit_ms.push(ms(submit));
    match code {
        202 => {}
        503 => return Err(Failure::Rejected),
        _ => return Err(Failure::Other(format!("POST /jobs answered {code}: {}", body.trim()))),
    }
    let accepted = Json::parse(body.trim()).map_err(|e| other("POST /jobs body", &e))?;
    let id = accepted.get("id").and_then(Json::as_str).unwrap_or_default().to_string();
    let path = format!("/jobs/{id}");

    let mut polls = 0;
    let status = loop {
        std::thread::sleep(POLL_INTERVAL);
        let (response, took) = timed(|| http(addr, "GET", &path, ""));
        let (code, body) = response.map_err(|e| other("GET /jobs/{id}", &e))?;
        times.status_ms.push(ms(took));
        polls += 1;
        if code != 200 {
            return Err(Failure::Other(format!("GET {path} answered {code}")));
        }
        let status = Json::parse(body.trim()).map_err(|e| other("status body", &e))?;
        match status.get("status").and_then(Json::as_str) {
            Some("completed" | "failed" | "cancelled") => break status,
            _ if start.elapsed() > JOB_TIMEOUT => {
                return Err(Failure::Other(format!("{id} not terminal after {JOB_TIMEOUT:?}")))
            }
            _ => {}
        }
    };
    let latency = start.elapsed();

    let state = status.get("status").and_then(Json::as_str).unwrap_or_default();
    let digest =
        status.get("output").and_then(|o| o.get("digest")).and_then(Json::as_str).unwrap_or("");
    if state != "completed" || digest != submission.digest {
        return Err(Failure::Other(format!(
            "{id} ended {state} with digest {digest:?}, expected {:?}",
            submission.digest
        )));
    }
    if scrape {
        let (response, took) = timed(|| http(addr, "GET", "/metrics", ""));
        let (code, body) = response.map_err(|e| other("GET /metrics", &e))?;
        if code != 200 {
            return Err(Failure::Other(format!("GET /metrics answered {code}")));
        }
        times.scrape_ms.push(ms(took));
        times.scrape_bytes_last = body.len() as u64;
    }
    Ok(Served1 {
        class: submission.class,
        start,
        submit,
        latency,
        polls,
        input_bytes: submission.input_bytes,
    })
}

/// What one cycle of the mix measured.
#[derive(Debug, Default)]
pub struct Cycle {
    pub attempted: u64,
    pub rejected: u64,
    pub errors: Vec<String>,
    /// Seconds from POST sent to terminal status read, verified jobs only.
    pub latencies: Vec<f64>,
    /// Generated input of the verified jobs.
    pub ok_bytes: u64,
    /// First POST to last terminal status.
    pub wall: Duration,
    pub cpu_s: f64,
    /// `VmHWM` when the cycle ended.
    pub peak_rss_mb: f64,
    served: Vec<Served1>,
    times: ClientTimes,
}

impl Cycle {
    pub fn failed(&self) -> u64 {
        self.attempted - self.latencies.len() as u64
    }
}

impl Served {
    /// One cycle: two closed-loop clients take its submissions in order
    /// and finish together; the last submission also scrapes `/metrics`.
    fn cycle(&self, submissions: &[Submission]) -> Cycle {
        let next = AtomicUsize::new(0);
        let clock = Clock::start();
        let per_client: Vec<Cycle> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        let mut mine = Cycle::default();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(submission) = submissions.get(i) else { return mine };
                            let scrape = i + 1 == submissions.len();
                            mine.attempted += 1;
                            match serve_one(self.addr, submission, scrape, &mut mine.times) {
                                Ok(served) => {
                                    mine.latencies.push(served.latency.as_secs_f64());
                                    mine.ok_bytes += served.input_bytes;
                                    mine.served.push(served);
                                }
                                Err(Failure::Rejected) => mine.rejected += 1,
                                Err(Failure::Other(error)) => mine.errors.push(error),
                            }
                        }
                    })
                })
                .collect();
            clients.into_iter().map(|c| c.join().expect("a client thread panicked")).collect()
        });
        let (wall, cpu_s) = clock.stop();
        let mut all = Cycle { wall, cpu_s, peak_rss_mb: sys::peak_rss_mb(), ..Cycle::default() };
        for mine in per_client {
            all.attempted += mine.attempted;
            all.rejected += mine.rejected;
            all.errors.extend(mine.errors);
            all.latencies.extend(mine.latencies);
            all.ok_bytes += mine.ok_bytes;
            all.served.extend(mine.served);
            all.times.submit_ms.extend(mine.times.submit_ms);
            all.times.status_ms.extend(mine.times.status_ms);
            all.times.scrape_ms.extend(mine.times.scrape_ms);
            all.times.scrape_bytes_last =
                all.times.scrape_bytes_last.max(mine.times.scrape_bytes_last);
        }
        all
    }

    /// Replay the sequence, cycle after cycle and round again, until
    /// `seconds` have passed and at least `min_reps` cycles were made.
    pub fn replay(&self, seconds: f64) -> Vec<Cycle> {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        let mut cycles = Vec::new();
        while cycles.len() < self.scale.min_reps || Instant::now() < deadline {
            cycles.push(self.cycle(&self.cycles[cycles.len() % self.cycles.len()]));
        }
        cycles
    }

    /// The traced pass: an unrecorded and a recorded replay of `seconds`
    /// each, the request timings of the recorded one, and the same
    /// word-count spec run directly through `Job::run`.
    pub fn traced_pass(&self, seconds: f64, spans: &mut Spans) -> Result<Layers, String> {
        let mut out = Layers::default();
        let plain = self.replay(seconds);
        let recorded = self.replay(seconds);
        for cycle in plain.iter().chain(&recorded) {
            if cycle.failed() > 0 {
                return Err(format!(
                    "traced replay: {} of {} jobs failed: {:?}",
                    cycle.failed(),
                    cycle.attempted,
                    cycle.errors
                ));
            }
        }
        let all = |cycles: &[Cycle], f: fn(&Cycle) -> &[f64]| -> Vec<f64> {
            cycles.iter().flat_map(|c| f(c).iter().copied()).collect()
        };
        let served: Vec<&Served1> = recorded.iter().flat_map(|c| &c.served).collect();
        for served in &served {
            let job = spans.add_root("job", spans.ns_of(served.start), served.latency);
            spans.count(job, "bytes", served.input_bytes);
            spans.count(job, "polls", served.polls);
            spans.lay_children(
                job,
                Source::Bench,
                &[("serve.submit", served.submit), ("serve.wait", served.latency - served.submit)],
            );
        }
        let latencies = all(&recorded, |c| &c.latencies);
        let wall: f64 = recorded.iter().map(|c| c.wall.as_secs_f64()).sum();
        out.set(
            "bench.trace_overhead_ratio",
            median(&latencies) / median(&all(&plain, |c| &c.latencies)),
        );
        out.set("serve.submit_ms_p50", median(&all(&recorded, |c| &c.times.submit_ms)));
        out.set("serve.status_ms_p50", median(&all(&recorded, |c| &c.times.status_ms)));
        out.set("serve.scrape_ms_p50", median(&all(&recorded, |c| &c.times.scrape_ms)));
        let last_scrape = recorded.last().map_or(0, |c| c.times.scrape_bytes_last);
        out.set("serve.scrape_bytes_last", last_scrape as f64);
        out.set("serve.job_latency_p90_s", percentile(&latencies, 0.9));
        out.set("serve.jobs_per_s", latencies.len() as f64 / wall);
        out.set("serve.rejected", recorded.iter().map(|c| c.rejected).sum::<u64>() as f64);

        self.spec_decode(spans, &mut out)?;
        dispatch_waves(self.scale.dispatch_waves, spans, &mut out);

        // The word-count class served, against the same work done by a
        // direct call: generate the input, then `Job::run` as the daemon
        // configures it.
        let served_wc: Vec<f64> = served
            .iter()
            .filter(|s| s.class == Class::WordCount)
            .map(|s| s.latency.as_secs_f64())
            .collect();
        let mut direct = Vec::new();
        let mut report = JobReport::default();
        for _ in 0..self.scale.trace_reps.max(3) {
            let (result, id, took) = spans.root("job.direct", || self.direct_word_count());
            report = result?;
            spans.count(id, "bytes", self.scale.serve_job_bytes);
            direct.push(took.as_secs_f64());
        }
        if !served_wc.is_empty() {
            out.set("serve.overhead_ratio", median(&served_wc) / median(&direct));
        }
        let t = &report.timings;
        out.set("runtime.phase_ingest_map_s", t.ingest_map_span().as_secs_f64());
        out.set("runtime.phase_reduce_s", t.phase(Phase::Reduce).as_secs_f64());
        out.set("runtime.phase_merge_s", t.phase(Phase::Merge).as_secs_f64());
        out.set("runtime.map_waiting_s", report.stats.map_waiting.as_secs_f64());
        out.set("runtime.ingest_waiting_s", report.stats.ingest_waiting.as_secs_f64());
        Ok(out)
    }

    /// `serve.spec_decode_us`: the spec decoder on one body of each class.
    fn spec_decode(&self, spans: &mut Spans, out: &mut Layers) -> Result<(), String> {
        let mut bodies: Vec<&Submission> = Vec::new();
        for submission in &self.cycles[0] {
            if !bodies.iter().any(|b| b.class == submission.class) {
                bodies.push(submission);
            }
        }
        let rounds = 50 * self.scale.dispatch_waves;
        let (decoded, id, took) = spans.root("serve.spec_decode", || {
            (0..rounds)
                .flat_map(|_| bodies.iter())
                .filter(|b| {
                    JobSpec::from_json_bytes(std::hint::black_box(b.body.as_bytes())).is_ok()
                })
                .count()
        });
        spans.count(id, "decodes", decoded as u64);
        if decoded != rounds * bodies.len() {
            return Err("the spec decoder rejected a body the daemon had accepted".to_string());
        }
        out.set("serve.spec_decode_us", took.as_nanos() as f64 / 1e3 / decoded as f64);
        Ok(())
    }

    /// What the daemon does for one word-count submission, without the
    /// daemon: generate the text, run the job chunked at 256 KiB.
    fn direct_word_count(&self) -> Result<JobReport, String> {
        let text = TextGen::new(TextGenConfig::default()).generate_bytes(
            self.seed.wrapping_mul(2) % (1 << 32),
            self.scale.serve_job_bytes as usize,
        );
        Job::new(WordCount::new())
            .workers(WORKERS)
            .pool(PoolMode::Persistent)
            .chunking(Chunking::Inter { chunk_bytes: 256 * 1024 })
            .hash_seed(self.seed % (1 << 32))
            .run(Input::stream(MemSource::from(text)))
            .map(|result| result.report)
            .map_err(|e| format!("direct word count: {e}"))
    }
}
