//! `served-attacks`: a closed loop of [`WORKERS`] clients submitting a
//! fixed, seeded job mix to an in-process `rc4_serve::Server` over
//! localhost.
//!
//! The mix is the two end-to-end attacks (tkip-attack, tls-cookie,
//! tls-cookie-stream) plus two bias experiments (fig6, table2) whose
//! datasets were cached during set-up. The only workload that exercises
//! `rc4-serve`, the store's cache-hit read path and single-flight, and the
//! `wpa-tkip`/`tls-rc4`/`crypto-prims` protocol substrate. Each client sends
//! its next job only after the previous one's result arrived.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::Value;

use crypto_prims::{crc32, michael::MichaelKey};
use plaintext_recovery::charset::Charset;
use rc4_attacks::{
    experiments::Scale,
    sampling::{sample_index, stream_seed},
    ExperimentContext, Registry,
};
use rc4_serve::{Client, JobSpec, JobStatus, ServeError, Server, ServerConfig};
use rc4_store::DatasetCache;
use tls_rc4::{
    attack::{recover_cookie, CookieAttackConfig, CookieStatistics},
    http::RequestTemplate,
    record::MAC_LEN,
    traffic::{TrafficConfig, TrafficGenerator},
};
use wpa_tkip::{
    attack::{recover_mic_key, AttackConfig, TrailerStatistics},
    injection::{InjectionConfig, InjectionSimulator},
    model::{TkipKeystreamModel, TscClassing},
    mpdu::{FrameAddressing, TRAILER_LEN},
    net::{build_tcp_msdu, Ipv4Header, TcpHeader},
    Tsc,
};

use crate::measure::{median, mix, timed, ObsDelta, Trace};
use crate::recovery::json_document;
use crate::{Item, Layers, Pass, Workload, WORKERS};

/// The job mix, all at quick scale.
const MIX: &[&str] = &[
    "tkip-attack",
    "tls-cookie",
    "tls-cookie-stream",
    "fig6",
    "table2",
];

/// Jobs per pass: each spec of the mix this many times, in a seeded order.
const REPEATS: usize = 4;

struct Job {
    spec: JobSpec,
    /// `Experiment::run` JSON of the same spec, made during set-up.
    reference: String,
}

/// Per-job scheduling telemetry of a traced pass, in µs.
struct Telemetry {
    queue_wait: f64,
    budget_wait: f64,
    run: f64,
    latency: f64,
}

pub struct Served {
    addr: String,
    server: Option<JoinHandle<Result<(), ServeError>>>,
    clients: Vec<Client>,
    jobs: Vec<Job>,
    /// Indices into `jobs`: the fixed work list of one pass.
    order: Vec<usize>,
    telemetry: Mutex<Vec<Telemetry>>,
    jobs_failed: f64,
    seed: u64,
}

fn telemetry_field(telemetry: &Option<Value>, name: &str) -> f64 {
    match telemetry.as_ref().map(|t| t.field(name)) {
        Some(Ok(Value::UInt(us))) => *us as f64,
        _ => 0.0,
    }
}

impl Workload for Served {
    const WORK_UNIT: &'static str = "jobs_per_s";

    fn setup(seed: u64, dir: &Path) -> Result<Self, String> {
        let state_dir = dir.join("state");
        let cache_dir = state_dir.join("cache");
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir,
            budget: WORKERS,
            default_workers: 1,
            cache_dir: Some(cache_dir.clone()),
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let mut served = Served {
            addr,
            server: Some(handle),
            clients: Vec::new(),
            jobs: Vec::new(),
            order: Vec::new(),
            telemetry: Mutex::default(),
            jobs_failed: 0.0,
            seed,
        };

        // One-shot runs of every spec against the server's cache directory:
        // they store the fig6/table2 datasets the served jobs then hit, and
        // are the references the served results must equal byte for byte.
        let cache =
            Arc::new(DatasetCache::open(&cache_dir).map_err(|e| format!("open cache: {e}"))?);
        let registry = Registry::with_defaults();
        for (j, name) in MIX.iter().enumerate() {
            let spec = JobSpec {
                name: name.to_string(),
                scale: "quick".to_string(),
                seed: mix(seed, j as u64) & 0xFFFF_FFFF,
                priority: 0,
                workers: 1,
            };
            let mut experiment = registry.create(name).map_err(|e| e.to_string())?;
            experiment.apply_scale(Scale::Quick);
            let ctx = ExperimentContext::new()
                .with_seed(spec.seed)
                .with_cache(Arc::clone(&cache));
            let report = experiment
                .run_observed(&ctx)
                .map_err(|e| format!("{name} reference run: {e}"))?;
            served.jobs.push(Job {
                spec,
                reference: json_document(&report),
            });
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, 0x0D3E));
        let mut order: Vec<usize> = (0..REPEATS * MIX.len()).map(|i| i % MIX.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        served.order = order;
        for _ in 0..WORKERS {
            served
                .clients
                .push(Client::connect(&served.addr).map_err(|e| e.to_string())?);
        }
        Ok(served)
    }

    fn pass(&mut self, trace: &Trace) -> Pass {
        let next = AtomicUsize::new(0);
        let items = Mutex::new(Vec::with_capacity(self.order.len()));
        let (jobs, order, telemetry) = (&self.jobs, &self.order, &self.telemetry);
        let failed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for client in self.clients.iter_mut() {
                let (next, items, failed) = (&next, &items, &failed);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(&j) = order.get(i) else {
                        return;
                    };
                    let job = &jobs[j];
                    let (outcome, us) = timed(
                        || -> Result<(JobStatus, String, Option<Value>), ServeError> {
                            let id = client.submit(job.spec.clone())?;
                            let (status, _) = client.watch(id, 0, |_, _| {})?;
                            let (doc, tele) = client.result_with_telemetry(id)?;
                            Ok((status, doc, tele))
                        },
                    );
                    let ok = match &outcome {
                        Ok((JobStatus::Done, doc, _)) => *doc == job.reference,
                        _ => false,
                    };
                    if !ok {
                        failed.fetch_add(1, Ordering::SeqCst);
                        eprintln!(
                            "e2ebench: served {} failed or differs from its one-shot run",
                            job.spec.name
                        );
                    }
                    if let (true, Ok((_, _, tele))) = (trace.is_on(), &outcome) {
                        telemetry.lock().expect("telemetry lock").push(Telemetry {
                            queue_wait: telemetry_field(tele, "queue_wait_us"),
                            budget_wait: telemetry_field(tele, "budget_wait_us"),
                            run: telemetry_field(tele, "run_us"),
                            latency: us,
                        });
                    }
                    items
                        .lock()
                        .expect("items lock")
                        .push(Item { ms: us / 1e3, ok });
                });
            }
        });
        if trace.is_on() {
            self.jobs_failed += failed.load(Ordering::SeqCst) as f64;
        }
        Pass {
            items: items.into_inner().expect("items lock"),
            work: self.order.len() as u64,
        }
    }

    fn layers(&mut self, _trace: &Trace, passes: f64, obs: &ObsDelta, out: &mut Layers) -> f64 {
        // Server-side time of the traced jobs (queueing, budget wait and the
        // run), per client connection: the part of a pass the server's own
        // telemetry explains. The rest is transport and client time.
        let server_us = {
            let tele = self.telemetry.lock().expect("telemetry lock");
            let p50 = |f: fn(&Telemetry) -> f64| median(&tele.iter().map(f).collect::<Vec<_>>());
            out.insert("rc4-serve.queue_wait_us.p50", p50(|t| t.queue_wait));
            out.insert("rc4-serve.budget_wait_us.p50", p50(|t| t.budget_wait));
            out.insert("rc4-serve.run_us.p50", p50(|t| t.run));
            out.insert("rc4-serve.overhead_us.p50", p50(|t| t.latency - t.run));
            let total: f64 = tele
                .iter()
                .map(|t| t.queue_wait + t.budget_wait + t.run)
                .sum();
            total / passes / WORKERS as f64
        };
        out.insert("rc4-serve.jobs_failed", self.jobs_failed / passes);
        let hits = obs.counter("store.cache.hit");
        let misses = obs.counter("store.cache.miss");
        if hits + misses > 0.0 {
            out.insert("rc4-store.cache_hit_ratio", hits / (hits + misses));
        }
        out.insert(
            "rc4-store.read_bytes",
            obs.counter("store.read_bytes") / passes,
        );
        out.insert(
            "rc4-store.read_us",
            obs.histogram_sum_us("store.read_us") / passes,
        );
        out.insert(
            "rc4-store.write_bytes",
            obs.counter("store.write_bytes") / passes,
        );
        out.insert(
            "rc4-store.write_us",
            obs.histogram_sum_us("store.write_us") / passes,
        );
        out.insert(
            "rc4-store.singleflight_coalesced",
            obs.counter("store.singleflight.coalesced") / passes,
        );
        if let Err(e) = tkip_probe(self.seed, out) {
            eprintln!("e2ebench: wpa-tkip probe: {e}");
        }
        if let Err(e) = tls_probe(self.seed, out) {
            eprintln!("e2ebench: tls-rc4 probe: {e}");
        }
        server_us
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        // Close the pass connections first so their handler threads end,
        // then drain the server and wait for it.
        self.clients.clear();
        if let Ok(mut client) = Client::connect(&self.addr) {
            let _ = client.shutdown(10_000);
        }
        if let Some(handle) = self.server.take() {
            let _ = handle.join();
        }
    }
}

/// The quick tkip-attack's capture stage (real RC4 injection) and one
/// MIC-key recovery over captures drawn from its synthetic per-TSC model.
fn tkip_probe(seed: u64, out: &mut Layers) -> Result<(), String> {
    let addressing = FrameAddressing {
        dst: [0x00, 0x1f, 0x33, 0x44, 0x55, 0x66],
        src: [0x00, 0x1f, 0x33, 0x77, 0x88, 0x99],
        transmitter: [0x00, 0x1f, 0x33, 0x77, 0x88, 0x99],
        priority: 0,
    };
    let ip = Ipv4Header::tcp([192, 168, 1, 7], [203, 0, 113, 10], 7, 64);
    let tcp = TcpHeader {
        src_port: 52311,
        dst_port: 80,
        seq: 0x1000_0000,
        ack: 0x2000_0000,
        flags: 0x18,
        window: 29200,
    };
    let msdu = build_tcp_msdu(&ip, &tcp, b"ATTACK!");
    let network_key = MichaelKey {
        l: 0x1234_5678,
        r: 0x9ABC_DEF0,
    };
    let mut sim = InjectionSimulator::new(
        [0xA5; 16],
        network_key,
        addressing,
        msdu.clone(),
        InjectionConfig {
            seed,
            ..InjectionConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let (captured, us) = timed(|| sim.capture(256));
    out.insert("wpa-tkip.frames", captured.len() as f64);
    out.insert("wpa-tkip.capture_us", us);

    let model = TkipKeystreamModel::synthetic(TscClassing::Tsc1, msdu.len() + 1, TRAILER_LEN, 4.0);
    let mut rng = StdRng::seed_from_u64(stream_seed(seed, &[0xA77A]));
    let mic_key = MichaelKey {
        l: rng.gen(),
        r: rng.gen(),
    };
    let mut mic_input = addressing.michael_header().to_vec();
    mic_input.extend_from_slice(&msdu);
    let mic = crypto_prims::michael::michael(mic_key, &mic_input);
    let mut body = msdu.clone();
    body.extend_from_slice(&mic);
    let mut trailer = mic.to_vec();
    trailer.extend_from_slice(&crc32::icv(&body));
    let mut stats = TrailerStatistics::new(256, msdu.len()).map_err(|e| e.to_string())?;
    for i in 0..5_000u64 {
        let class = model.class_of(Tsc(i + 1));
        let mut ct = vec![0u8; msdu.len() + TRAILER_LEN];
        for (idx, slot) in ct.iter_mut().enumerate().skip(msdu.len()) {
            let z = sample_index(model.distribution(class, idx + 1), &mut rng) as u8;
            *slot = trailer[idx - msdu.len()] ^ z;
        }
        stats.add(class, &ct).map_err(|e| e.to_string())?;
    }
    let config = AttackConfig {
        max_candidates: 1 << 10,
    };
    let (recovered, us) = timed(|| recover_mic_key(&stats, &model, &msdu, &addressing, &config));
    if recovered.is_err() {
        // A miss within the candidate budget is a legitimate attack outcome.
        eprintln!("e2ebench: wpa-tkip probe: MIC key not within the candidate budget");
    }
    out.insert("wpa-tkip.recover_us", us);
    Ok(())
}

/// The quick tls-cookie's traffic capture over real TLS RC4-SHA1 records
/// and its scoring (`recover_cookie`: likelihoods, candidates, brute force).
fn tls_probe(seed: u64, out: &mut Layers) -> Result<(), String> {
    let cookie = b"dGhpc2lzc2VjcmV0".to_vec();
    let mut template = RequestTemplate::new("site.com", "auth", cookie.len());
    template.align_cookie(0, 0, MAC_LEN);
    let mut traffic = TrafficGenerator::new(
        template.clone(),
        cookie.clone(),
        TrafficConfig {
            seed,
            ..TrafficConfig::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let mut stats = CookieStatistics::new(&template, 32).map_err(|e| e.to_string())?;
    let (mut records, mut capture_us) = (0.0, 0.0);
    for batch in [1024, 476] {
        let (captured, us) = timed(|| traffic.capture(batch));
        capture_us += us;
        for capture in captured.map_err(|e| e.to_string())? {
            records += 1.0;
            stats.add(&capture).map_err(|e| e.to_string())?;
        }
    }
    out.insert("tls-rc4.records", records);
    out.insert("tls-rc4.capture_us", capture_us);
    let config = CookieAttackConfig {
        max_gap: 32,
        candidates: 256,
        charset: Charset::base64(),
        use_fm: true,
        use_absab: true,
    };
    let (outcome, us) =
        timed(|| recover_cookie(&stats, &config, |guess| guess == cookie.as_slice()));
    outcome.map_err(|e| e.to_string())?;
    out.insert("tls-rc4.score_us", us);
    Ok(())
}
