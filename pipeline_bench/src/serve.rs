//! `serve`: the server side of `POST /predict`, in-process and without
//! HTTP. One caller decodes a request body with the JSON shim
//! (`serde_json::from_str::<PredictRequest>`) and hands the request to
//! `ServiceHandle::predict_request`, which runs validation, fingerprinting,
//! the cache, the queue and inference on a worker, with
//! `ServeConfig::default()`. The caller waits for each answer, as a DSE
//! caller waits for each score. Bodies are graph payloads from a pool of
//! 360 designs: the 54 built-in kernels plus the distinct designs of the
//! `dot`, `fir` and `stencil` spaces.
//!
//! Requests come in rounds. A round visits the pool in a seeded order and
//! asks for every design a second time [`REVISIT_LAG`] requests after the
//! first, as a search revisits designs it scored recently. Each round
//! starts on a fresh service, so every first request misses the cache and
//! every second one hits it: half the requests hit, however many fit in a
//! run.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use hls_gnn_core::dataset::{Dataset, GraphSample};
use hls_gnn_core::persist::SavedPredictor;
use hls_gnn_core::task::TargetMetric;
use hls_gnn_core::Predictor;
use hls_gnn_dse::DesignSpace;
use hls_gnn_serve::{PredictRequest, ServeConfig, ServiceHandle};
use hls_ir::graph::GraphKind;
use hls_progen::{ProgramFamily, ProgramGenerator, SyntheticConfig};
use hls_sim::FpgaDevice;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::clock::Stamp;
use crate::stats::{mean, micros, percentile};
use crate::{checks, model, trace, Layers, Phase, Workload};

/// Rounds generated up front; a phase that sends more requests starts over.
const ROUNDS: usize = 50;
/// Requests between a design's first request in a round and its second.
const REVISIT_LAG: usize = 8;
/// Designs outside the pool, each requested once in warm-up.
const WARMUP_DESIGNS: usize = 4;
const WARMUP_SEED_SALT: u64 = 0x5345_5256;
/// Requests of the traced phase replayed through `to_sample` and the
/// fingerprint.
const REPLAY_REQUESTS: usize = 128;

struct Design {
    name: String,
    body: String,
    nodes: usize,
    expected: [f64; TargetMetric::COUNT],
}

/// One answered request, as the caller saw it.
struct Answered {
    design: usize,
    cached: bool,
    coalesced: usize,
    queue_wait_us: f64,
    latency_us: f64,
}

pub struct Serve {
    snapshot: SavedPredictor,
    service: ServiceHandle,
    /// The service has answered requests; the next round starts a fresh one.
    used: bool,
    pool: Vec<Design>,
    pool_mape_pct: f64,
    warmup_bodies: Vec<String>,
    /// Each round's requests, as pool indices.
    rounds: Vec<Vec<usize>>,
    answered: Vec<Answered>,
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.service.shutdown();
    }
}

fn pool_samples(device: &FpgaDevice) -> Result<Vec<GraphSample>, String> {
    let mut samples = Dataset::real_world(device)
        .map_err(|error| format!("labelling the built-in kernels: {error}"))?
        .samples;
    for space in [DesignSpace::dot(), DesignSpace::fir(), DesignSpace::stencil()] {
        let mut seen = BTreeSet::new();
        for index in 0..space.len() {
            let point = space.point(index);
            let name = space.effective_design(&point).map_err(|error| error.to_string())?;
            if seen.insert(name) {
                let function = space.instantiate(&point).map_err(|error| error.to_string())?;
                samples.push(
                    GraphSample::from_function(&function, GraphKind::Cdfg, device)
                        .map_err(|error| format!("labelling {}: {error}", function.name))?,
                );
            }
        }
    }
    Ok(samples)
}

fn body(sample: &GraphSample) -> String {
    serde_json::to_string(&PredictRequest::for_sample(sample)).expect("a graph request serialises")
}

/// Decodes one body and has the service answer it.
fn answer(service: &ServiceHandle, body: &str) -> Result<(String, hls_gnn_serve::Served), String> {
    let request = trace::span("shims.json_decode", || serde_json::from_str::<PredictRequest>(body))
        .map_err(|error| format!("decoding the request: {error}"))?;
    trace::span("serve.predict_request", || service.predict_request(&request))
        .map_err(|error| format!("predict_request: {error}"))
}

/// One round over a pool of `designs`: a seeded order in which each design
/// comes a second time [`REVISIT_LAG`] requests after its first.
fn round(designs: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..designs).collect();
    order.shuffle(rng);
    let mut requests = Vec::with_capacity(2 * designs);
    for (position, &design) in order.iter().enumerate() {
        requests.push(design);
        if position >= REVISIT_LAG {
            requests.push(order[position - REVISIT_LAG]);
        }
    }
    requests.extend(&order[designs.saturating_sub(REVISIT_LAG)..]);
    requests
}

/// Starts a service with an empty cache and warms it up on designs outside
/// the pool, so warm-up leaves nothing in the cache that a round asks for.
fn start_service(snapshot: &SavedPredictor, warmup: &[String]) -> Result<ServiceHandle, String> {
    let service = ServiceHandle::start(snapshot.clone(), &ServeConfig::default())
        .map_err(|error| format!("starting the service: {error}"))?;
    for body in warmup {
        // Not through `answer`: warm-up requests leave no spans.
        let answered = serde_json::from_str::<PredictRequest>(body)
            .map_err(|error| error.to_string())
            .and_then(|request| service.predict_request(&request).map_err(|e| e.to_string()));
        if let Err(error) = answered {
            service.shutdown();
            return Err(format!("warm-up request: {error}"));
        }
    }
    Ok(service)
}

impl Serve {
    /// Sends one pool design, times it and checks the answer.
    fn serve_one(&mut self, index: usize, phase: &mut Phase) {
        let design = &self.pool[index];
        let op = Stamp::now();
        let reply = trace::span("serve.op", || answer(&self.service, &design.body));
        let took = op.elapsed();
        phase.op(took);
        phase.time += took;
        phase.designs += 1;
        let checked = reply.and_then(|(name, served)| {
            checks::served(&name, &served.prediction, &design.name, &design.expected)?;
            Ok(served)
        });
        if let Ok(served) = &checked {
            self.answered.push(Answered {
                design: index,
                cached: served.cached,
                coalesced: served.coalesced,
                queue_wait_us: micros(served.queue_wait),
                latency_us: micros(served.latency),
            });
        }
        phase.check(checked.map(drop));
    }
}

impl Workload for Serve {
    fn setup(seed: u64) -> Result<Self, String> {
        let predictor = model::trained_on_dot()?;
        let device = FpgaDevice::default();
        let samples = pool_samples(&device)?;
        let expected = predictor
            .predict_batch(&samples)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|error| format!("reference predict_batch: {error}"))?;
        let pool_mape_pct = model::mape_pct(&expected, &samples.iter().collect::<Vec<_>>());
        let pool: Vec<Design> = samples
            .iter()
            .zip(&expected)
            .map(|(sample, &expected)| Design {
                name: sample.name.clone(),
                body: body(sample),
                nodes: sample.num_nodes(),
                expected,
            })
            .collect();
        // Small programs, so warm-up stays short while the decoder is
        // quadratic in the body size.
        let mut warmup = ProgramGenerator::new(
            SyntheticConfig::tiny(ProgramFamily::Control),
            seed ^ WARMUP_SEED_SALT,
        );
        let warmup_bodies = warmup
            .generate_iter(WARMUP_DESIGNS)
            .map(|func| {
                GraphSample::from_function(&func, GraphKind::Cdfg, &device)
                    .map(|sample| body(&sample))
                    .map_err(|error| format!("warm-up design: {error}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let rounds = (0..ROUNDS).map(|_| round(pool.len(), &mut rng)).collect();
        let snapshot = predictor.snapshot().map_err(|error| format!("snapshot: {error}"))?;
        let service = start_service(&snapshot, &warmup_bodies)?;
        Ok(Serve {
            snapshot,
            service,
            used: false,
            pool,
            pool_mape_pct,
            warmup_bodies,
            rounds,
            answered: Vec::new(),
        })
    }

    /// Every phase starts at the first round, so both halves of a traced run
    /// send the same requests. Service restarts between rounds are not
    /// timed: the phase's time is the sum of its ops.
    fn measure(&mut self, budget: Duration) -> Phase {
        let mut phase = Phase::default();
        self.answered.clear();
        let started = Stamp::now();
        'rounds: for round in (0..self.rounds.len()).cycle() {
            if self.used {
                self.service.shutdown();
                self.service = start_service(&self.snapshot, &self.warmup_bodies)
                    .expect("the service restarts as it started in set-up");
            }
            self.used = true;
            for position in 0..self.rounds[round].len() {
                if started.elapsed().wall >= budget {
                    break 'rounds;
                }
                self.serve_one(self.rounds[round][position], &mut phase);
            }
        }

        let sent: Vec<&Design> = self.answered.iter().map(|a| &self.pool[a.design]).collect();
        let mut nodes: Vec<f64> = sent.iter().map(|d| d.nodes as f64).collect();
        nodes.sort_by(f64::total_cmp);
        let hits = self.answered.iter().filter(|a| a.cached).count();
        let computed: Vec<f64> =
            self.answered.iter().filter(|a| !a.cached).map(|a| a.coalesced as f64).collect();
        phase.record = vec![
            ("nodes_mean", mean(&nodes)),
            ("nodes_p90", percentile(&nodes, 0.9)),
            (
                "body_kb_mean",
                mean(&sent.iter().map(|d| d.body.len() as f64 / 1e3).collect::<Vec<_>>()),
            ),
            ("cache_hit_share", hits as f64 / self.answered.len().max(1) as f64),
            // One caller: every computed request runs alone, so this reads 1.
            ("coalesce_width_mean", mean(&computed)),
            ("pool_designs", self.pool.len() as f64),
        ];
        phase
    }

    fn mape_pct(&mut self) -> f64 {
        self.pool_mape_pct
    }

    fn layers(&mut self, traced: &Phase, spans: &[trace::Span]) -> Result<Layers, String> {
        let ops = traced.wall_us.len().max(1) as f64;
        let totals = trace::self_times(spans);
        let decode = totals.get("shims.json_decode").map_or(0.0, |t| t.self_ns as f64 / 1e3 / ops);

        // `predict_request` turns the decoded graph into a sample and
        // fingerprints it inside the service; replay both on an even spread
        // of the traced requests, after the phase.
        let stride = (self.answered.len() / REPLAY_REQUESTS).max(1);
        let (mut to_sample, mut fingerprint) = (Vec::new(), Vec::new());
        for answered in self.answered.iter().step_by(stride) {
            let design = &self.pool[answered.design];
            let graph = serde_json::from_str::<PredictRequest>(&design.body)
                .ok()
                .and_then(|request| request.graph)
                .ok_or_else(|| format!("{}: the replayed body has no graph", design.name))?;
            let started = Instant::now();
            let sample = graph.to_sample();
            to_sample.push(micros(started.elapsed()));
            let sample = sample.map_err(|error| format!("{}: to_sample: {error}", design.name))?;
            let started = Instant::now();
            std::hint::black_box(hls_gnn_core::sample_fingerprint(&sample));
            fingerprint.push(micros(started.elapsed()));
        }
        let computed: Vec<&Answered> = self.answered.iter().filter(|a| !a.cached).collect();
        let queue_wait = mean(&computed.iter().map(|a| a.queue_wait_us).collect::<Vec<_>>());
        let service =
            mean(&computed.iter().map(|a| a.latency_us - a.queue_wait_us).collect::<Vec<_>>());
        // The service's own admission-to-answer time covers the fingerprint,
        // the cache, the queue wait and the worker's service time.
        let server_latency = mean(&self.answered.iter().map(|a| a.latency_us).collect::<Vec<_>>());
        let to_sample = mean(&to_sample);
        let record =
            |name: &str| traced.record.iter().find(|(n, _)| *n == name).map_or(0.0, |r| r.1);
        Ok(vec![
            ("shims.json_decode_us", decode),
            ("core.to_sample_us", to_sample),
            ("core.fingerprint_us", mean(&fingerprint)),
            ("serve.queue_wait_us", queue_wait),
            ("serve.service_us", service),
            ("serve.cache_hit_ratio", record("cache_hit_share")),
            ("serve.body_kb_mean", record("body_kb_mean")),
            (
                "trace.attributed_pct",
                100.0 * (decode + to_sample + server_latency) / mean(&traced.wall_us).max(1e-9),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_prefix_of_a_round_is_about_half_second_requests() {
        let requests = round(30, &mut StdRng::seed_from_u64(3));
        assert_eq!(requests.len(), 60);
        let mut seen = [0usize; 30];
        let mut seconds = 0;
        for (position, &design) in requests.iter().enumerate() {
            seen[design] += 1;
            if seen[design] == 2 {
                seconds += 1;
            }
            let sent = position + 1;
            assert!((sent / 2).abs_diff(seconds) <= REVISIT_LAG / 2 + 1, "{seconds} of {sent}");
        }
        assert!(seen.iter().all(|&count| count == 2));
    }
}
