//! Acceptance tests for the serving subsystem.
//!
//! The load-bearing guarantee: **served predictions are bit-identical to a
//! direct `predict_batch` call** on the same model and graphs — for worker
//! counts 1 and 4, with the prediction cache enabled and disabled, under
//! concurrent submission (arbitrary coalescing patterns), and over the HTTP
//! wire format. This holds because fused multi-graph inference is
//! bit-identical to running each graph alone (asserted exactly for every
//! backbone in tests/batching.rs), so *how* requests happen to batch can
//! never change *what* is predicted.

use std::collections::HashMap;

use hls_gnn::prelude::*;
use hls_gnn_serve::{
    sample_fingerprint, HttpClient, HttpServer, Outcome, PredictRequest, PredictResponse,
    ServeConfig, ServeError, ServiceHandle, SlowRequestsResponse, StatsResponse,
};
use hls_progen::synthetic::SyntheticConfig;

fn corpus(count: usize, seed: u64) -> Dataset {
    DatasetBuilder::new(ProgramFamily::StraightLine)
        .count(count)
        .seed(seed)
        .generator_config(SyntheticConfig::tiny(ProgramFamily::StraightLine))
        .build()
        .expect("corpus builds")
}

fn trained(spec: &str, split: &Split) -> Box<dyn Predictor> {
    PredictorBuilder::parse(spec)
        .expect("spec parses")
        .config(TrainConfig::fast())
        .train(&split.train, &split.validation)
        .expect("training succeeds")
}

/// The acceptance scenario: for worker counts 1 and 4, cache off and on,
/// across a plain and a hierarchical model, concurrently served predictions
/// are bit-identical to direct `predict_batch`, and a second (cache-hit)
/// pass returns the same bits.
#[test]
fn served_predictions_are_bit_identical_to_direct_predict_batch() {
    let dataset = corpus(14, 33);
    let split = dataset.split(0.7, 0.15, 1);
    // Serve the whole corpus, not just the held-out split: 14 concurrent
    // requests give the coalescer real contention at width > 1.
    let samples = dataset.samples.clone();

    for spec in ["base/gcn", "hier/gcn"] {
        let predictor = trained(spec, &split);
        let direct: Vec<[f64; 4]> = predictor
            .predict_batch(&samples)
            .into_iter()
            .map(|result| result.expect("direct prediction succeeds"))
            .collect();
        let snapshot = predictor.snapshot().expect("snapshot exports");

        for workers in [1usize, 4] {
            for cache_capacity in [0usize, 128] {
                let config = ServeConfig {
                    workers,
                    cache_capacity,
                    queue_bound: 64,
                    ..ServeConfig::default()
                };
                let service =
                    ServiceHandle::start(snapshot.clone(), &config).expect("service starts");

                // Concurrent submission from four frontend threads, so the
                // coalescer sees real contention and arbitrary batch shapes.
                let mut joins = Vec::new();
                for (index, sample) in samples.iter().cloned().enumerate() {
                    let service = service.clone();
                    joins.push(std::thread::spawn(move || {
                        (index, service.predict_sample(sample).expect("served"))
                    }));
                }
                let mut first_pass = vec![None; samples.len()];
                for join in joins {
                    let (index, served) = join.join().expect("client thread");
                    assert!(!served.cached, "first pass cannot hit the cache");
                    first_pass[index] = Some(served);
                }
                for (index, served) in first_pass.iter().enumerate() {
                    let served = served.as_ref().expect("every sample served");
                    assert_eq!(
                        served.prediction, direct[index],
                        "{spec} workers={workers} cache={cache_capacity}: served sample {index} \
                         is not bit-identical to direct predict_batch"
                    );
                }

                // Second pass: with the cache on, every request must hit and
                // return the same bits; with it off, everything recomputes —
                // to the same bits.
                for (index, sample) in samples.iter().cloned().enumerate() {
                    let served = service.predict_sample(sample).expect("served again");
                    assert_eq!(served.cached, cache_capacity > 0);
                    assert_eq!(
                        served.prediction, direct[index],
                        "{spec}: cache-hit and cache-miss predictions must be bit-identical"
                    );
                }

                let stats = service.stats();
                assert_eq!(stats.requests, 2 * samples.len() as u64);
                assert_eq!(stats.served, 2 * samples.len() as u64);
                assert_eq!(stats.shed, 0);
                assert_eq!(stats.errors, 0);
                if cache_capacity > 0 {
                    assert_eq!(stats.cache.hits, samples.len() as u64);
                    assert_eq!(stats.cache.entries, samples.len());
                } else {
                    assert_eq!(stats.cache.hits, 0);
                    assert_eq!(stats.cache.capacity, 0);
                }
                assert_eq!(stats.workers, workers);
                assert!(stats.latency.window > 0);

                service.shutdown();
                let refused = service.predict_sample(samples[0].clone());
                assert_eq!(refused.unwrap_err(), ServeError::ShuttingDown);
            }
        }
    }
}

/// Satellite: canonical content hashing. Equal samples fingerprint equal;
/// perturbing any model input — an edge, a relation, a node feature, an
/// auxiliary resource value, a resource-type flag — changes the fingerprint;
/// the name and ground-truth labels (never model inputs) do not.
#[test]
fn sample_fingerprints_are_canonical_and_perturbation_sensitive() {
    let dataset = corpus(2, 21);
    let sample = dataset.samples[0].clone();
    assert_eq!(sample_fingerprint(&sample), sample_fingerprint(&sample.clone()));
    assert_ne!(
        sample_fingerprint(&dataset.samples[0]),
        sample_fingerprint(&dataset.samples[1]),
        "different programs must fingerprint differently"
    );

    let base = sample_fingerprint(&sample);
    let mut renamed = sample.clone();
    renamed.name = "other-name".to_owned();
    assert_eq!(sample_fingerprint(&renamed), base, "the name is not a model input");
    let mut relabelled = sample.clone();
    relabelled.targets[0] += 1.0;
    relabelled.hls_estimate[1] += 1.0;
    assert_eq!(sample_fingerprint(&relabelled), base, "labels are not model inputs");

    let mut edge = sample.clone();
    edge.structure.edge_dst[0] = (edge.structure.edge_dst[0] + 1) % edge.structure.num_nodes;
    let mut relation = sample.clone();
    relation.structure.edge_relation[0] =
        (relation.structure.edge_relation[0] + 1) % relation.structure.num_relations;
    let mut feature = sample.clone();
    feature.node_features[0].bitwidth = feature.node_features[0].bitwidth.wrapping_add(1);
    let mut opcode = sample.clone();
    opcode.node_features[0].opcode = (opcode.node_features[0].opcode + 1) % 2;
    let mut aux = sample.clone();
    aux.node_aux_resources[0][1] += 1.0;
    let mut types = sample.clone();
    types.node_resource_types[0][2] = 1.0 - types.node_resource_types[0][2];
    for (what, perturbed) in [
        ("edge endpoint", &edge),
        ("relation id", &relation),
        ("bitwidth feature", &feature),
        ("opcode feature", &opcode),
        ("aux resource", &aux),
        ("resource type", &types),
    ] {
        assert_ne!(
            sample_fingerprint(perturbed),
            base,
            "perturbing the {what} must change the fingerprint"
        );
    }
}

/// Reads the value of one exposed series from a Prometheus-style text
/// exposition: the line starting `name{` (any label set) or bare `name `.
fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    exposition
        .lines()
        .find(|line| {
            line.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
        })
        .and_then(|line| line.rsplit(' ').next())
        .and_then(|value| value.parse().ok())
}

/// Satellite: `/metrics` and `/stats` read the same registry, so every
/// counter and gauge the JSON document reports must appear in the text
/// exposition with the same value — including cache evictions (forced here
/// with an undersized cache) and the queue-depth/cache gauges.
#[test]
fn metrics_exposition_agrees_with_the_stats_document() {
    let dataset = corpus(10, 17);
    let split = dataset.split(0.7, 0.15, 1);
    let predictor = trained("base/gcn", &split);
    // Capacity 4 against 10 distinct requests forces LRU evictions.
    let config =
        ServeConfig { workers: 2, cache_capacity: 4, queue_bound: 32, ..ServeConfig::default() };
    let service =
        ServiceHandle::start(predictor.snapshot().expect("snapshot"), &config).expect("starts");
    let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("binds");
    let mut client = HttpClient::new(server.local_addr());

    for sample in &dataset.samples {
        let body = serde_json::to_string(&PredictRequest::for_sample(sample)).expect("request");
        assert_eq!(client.post("/predict", &body).expect("predict").status, 200);
    }
    // A second pass over the first few samples: they were evicted by the
    // later ones (LRU, capacity 4 < 10), so these re-miss and re-evict.
    for sample in &dataset.samples[..3] {
        let body = serde_json::to_string(&PredictRequest::for_sample(sample)).expect("request");
        assert_eq!(client.post("/predict", &body).expect("predict").status, 200);
    }

    let stats: StatsResponse =
        serde_json::from_str(&client.get("/stats").expect("stats").body).expect("stats parse");
    let metrics = client.get("/metrics").expect("metrics").body;

    assert!(stats.cache.evictions > 0, "an undersized cache must evict");
    for (name, expected) in [
        ("hlsgnn_serve_requests_total", stats.requests as f64),
        ("hlsgnn_serve_served_total", stats.served as f64),
        ("hlsgnn_serve_shed_total", stats.shed as f64),
        ("hlsgnn_serve_errors_total", stats.errors as f64),
        ("hlsgnn_serve_cache_hits_total", stats.cache.hits as f64),
        ("hlsgnn_serve_cache_misses_total", stats.cache.misses as f64),
        ("hlsgnn_serve_cache_evictions_total", stats.cache.evictions as f64),
        ("hlsgnn_serve_latency_us_count", stats.latency.window as f64),
        ("hlsgnn_serve_queue_depth", stats.queue_depth as f64),
        ("hlsgnn_serve_queue_bound", stats.queue_bound as f64),
        ("hlsgnn_serve_cache_entries", stats.cache.entries as f64),
        ("hlsgnn_serve_cache_capacity", stats.cache.capacity as f64),
        ("hlsgnn_serve_workers", stats.workers as f64),
    ] {
        assert_eq!(
            metric_value(&metrics, name),
            Some(expected),
            "`{name}` must match /stats; exposition:\n{metrics}"
        );
    }
    // The exposition is typed and label-scoped to the served model.
    assert!(metrics.contains("# TYPE hlsgnn_serve_latency_us histogram"));
    assert!(metrics.contains("hlsgnn_serve_requests_total{model=\"GCN\"}"));
    // The process-global registry rides along: this test's in-process
    // training recorded epochs there.
    assert!(metrics.contains("hlsgnn_train_epochs_total"));

    service.shutdown();
    server.shutdown();
}

/// Admission control: with one deliberately slowed worker and a queue bound
/// of 1, concurrent requests beyond the bound are shed with
/// [`ServeError::Overloaded`] and counted in the stats.
#[test]
fn a_full_queue_sheds_requests_with_overloaded() {
    let dataset = corpus(6, 5);
    let split = dataset.split(0.7, 0.15, 1);
    let predictor = trained("base/gcn", &split);
    let config = ServeConfig {
        workers: 1,
        cache_capacity: 0,
        queue_bound: 1,
        worker_delay: std::time::Duration::from_millis(400),
        ..ServeConfig::default()
    };
    let service =
        ServiceHandle::start(predictor.snapshot().expect("snapshot"), &config).expect("starts");

    // Occupy the worker (it sleeps 400 ms per micro-batch), then race three
    // more submissions at the bound-1 queue: at most one can be admitted
    // while the worker is busy (a racer thread would have to be delayed by
    // hundreds of milliseconds for the queue to empty under it).
    let occupant = {
        let service = service.clone();
        let sample = split.test.samples[0].clone();
        std::thread::spawn(move || service.predict_sample(sample))
    };
    std::thread::sleep(std::time::Duration::from_millis(100));
    let racers: Vec<_> = (0..3)
        .map(|index| {
            let service = service.clone();
            let sample = split.train.samples[index].clone();
            std::thread::spawn(move || service.predict_sample(sample))
        })
        .collect();
    let outcomes: Vec<_> = racers.into_iter().map(|j| j.join().expect("racer")).collect();
    let shed = outcomes
        .iter()
        .filter(|outcome| matches!(outcome, Err(ServeError::Overloaded { queue_bound: 1 })))
        .count();
    assert!(
        (1..=3).contains(&shed),
        "with a bound-1 queue and a busy worker, racing 3 requests must shed 1..=3, shed {shed}"
    );
    assert!(occupant.join().expect("occupant").is_ok());
    for served in outcomes.into_iter().flatten() {
        assert!(served.prediction.iter().all(|v| v.is_finite()));
    }
    let stats = service.stats();
    assert_eq!(stats.shed, shed as u64);
    // `requests` counts admissions only; shed requests are not in it.
    assert_eq!(stats.requests, 4 - shed as u64);
    service.shutdown();
}

/// Request-scoped tracing: concurrent coalesced requests each get a unique
/// monotonic id that round-trips from admission through the access-log
/// record to the HTTP response and `GET /debug/slow`; each record decomposes
/// end-to-end latency into queue wait (admission to worker pick-up) plus
/// service time (pick-up to reply, including the artificial delay).
#[test]
fn request_ids_are_unique_and_latency_decomposes_into_wait_plus_service() {
    let dataset = corpus(8, 29);
    let split = dataset.split(0.7, 0.15, 1);
    let predictor = trained("base/gcn", &split);
    // One deliberately slowed worker, no cache, slow threshold 0: every
    // request queues behind the first, waits measurably, and lands in the
    // slow ring.
    let config = ServeConfig {
        workers: 1,
        cache_capacity: 0,
        queue_bound: 64,
        coalesce_width: 4,
        worker_delay: std::time::Duration::from_millis(150),
        slow_threshold_us: 0,
        access_log: false,
    };
    let service =
        ServiceHandle::start(predictor.snapshot().expect("snapshot"), &config).expect("starts");

    // Occupy the worker, then race five more submissions while it sleeps:
    // they pile up in the queue and the next drain must coalesce them.
    let occupant = {
        let service = service.clone();
        let sample = dataset.samples[0].clone();
        std::thread::spawn(move || service.predict_sample(sample).expect("served"))
    };
    std::thread::sleep(std::time::Duration::from_millis(50));
    let racers: Vec<_> = dataset.samples[1..6]
        .iter()
        .cloned()
        .map(|sample| {
            let service = service.clone();
            std::thread::spawn(move || service.predict_sample(sample).expect("served"))
        })
        .collect();
    let mut served = vec![occupant.join().expect("occupant")];
    served.extend(racers.into_iter().map(|join| join.join().expect("racer")));

    // Ids are assigned at admission: six requests, ids exactly 1..=6.
    let mut ids: Vec<u64> = served.iter().map(|s| s.request_id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=6).collect::<Vec<u64>>(), "ids must be unique and monotonic from 1");

    // Every request resolved into one access-log record with the same ids.
    let records = service.recent_requests();
    assert_eq!(records.len(), 6);
    let mut record_ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    record_ids.sort_unstable();
    assert_eq!(record_ids, ids, "access-log records must carry the served ids");
    assert!(
        records.iter().any(|r| r.coalesced >= 2),
        "requests racing a busy worker must coalesce"
    );
    for record in &records {
        assert_eq!(record.outcome, Outcome::Served);
        assert!(record.batch_index < record.coalesced, "batch position within the micro-batch");
        // The artificial delay is service time, so every record's service
        // side is at least the 150 ms sleep.
        assert!(
            record.service_us >= 150_000,
            "service_us {} < the worker delay",
            record.service_us
        );
        // Queue wait + service time is measured microseconds apart from the
        // end-to-end latency; they must agree to within scheduling noise.
        let decomposed = record.queue_wait_us + record.service_us;
        assert!(
            decomposed.abs_diff(record.latency_us) <= 5_000,
            "queue_wait {} + service {} must approximate latency {}",
            record.queue_wait_us,
            record.service_us,
            record.latency_us
        );
    }
    assert!(
        records.iter().any(|r| r.queue_wait_us >= 50_000),
        "requests admitted behind the sleeping worker must wait measurably"
    );

    // Threshold 0 captures everything: the slow ring holds the same six.
    let slow = service.slow_requests();
    assert_eq!(slow.threshold_us, 0);
    assert_eq!(slow.total, 6);
    assert_eq!(slow.requests.len(), 6);

    // Over the wire: the response echoes the next id and /debug/slow
    // round-trips it.
    let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("binds");
    let mut client = HttpClient::new(server.local_addr());
    let body =
        serde_json::to_string(&PredictRequest::for_sample(&dataset.samples[6])).expect("request");
    let reply = client.post("/predict", &body).expect("predict");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let parsed: PredictResponse = serde_json::from_str(&reply.body).expect("response parses");
    assert_eq!(parsed.request_id, 7, "the wire response must echo the admission id");
    let slow_reply = client.get("/debug/slow").expect("debug/slow");
    assert_eq!(slow_reply.status, 200);
    let doc: SlowRequestsResponse =
        serde_json::from_str(&slow_reply.body).expect("slow document parses");
    assert!(
        doc.requests.iter().any(|r| r.id == 7 && r.outcome == "served"),
        "/debug/slow must contain the request served over the wire: {}",
        slow_reply.body
    );
    assert_eq!(client.post("/debug/slow", "").expect("reply").status, 405);

    let stats: StatsResponse =
        serde_json::from_str(&client.get("/stats").expect("stats").body).expect("stats parse");
    assert_eq!(stats.slow, 7, "every request crossed the 0 µs slow threshold");

    server.shutdown();
    service.shutdown();
}

/// The HTTP frontend end to end: predictions over the wire are bit-identical
/// to direct `predict_batch` (the JSON float encoding is
/// shortest-round-trip), the error paths map to the right statuses, /stats
/// parses, and /shutdown stops the accept loop.
#[test]
fn http_frontend_serves_bit_identical_predictions_and_typed_errors() {
    let dataset = corpus(10, 13);
    let split = dataset.split(0.7, 0.15, 1);
    let predictor = trained("base/gcn", &split);
    let samples = split.test.samples.clone();
    let direct: HashMap<String, [f64; 4]> = samples
        .iter()
        .zip(predictor.predict_batch(&samples))
        .map(|(sample, result)| (sample.name.clone(), result.expect("direct")))
        .collect();

    let config = ServeConfig { workers: 2, cache_capacity: 64, ..ServeConfig::default() };
    let service =
        ServiceHandle::start(predictor.snapshot().expect("snapshot"), &config).expect("starts");
    let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("binds");
    let mut client = HttpClient::new(server.local_addr());

    // Liveness.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));

    // Graph predictions: bit-identical over the wire, cached on repeat.
    for sample in &samples {
        let body = serde_json::to_string(&PredictRequest::for_sample(sample)).expect("serialises");
        let reply = client.post("/predict", &body).expect("predict");
        assert_eq!(reply.status, 200, "body: {}", reply.body);
        let parsed: PredictResponse = serde_json::from_str(&reply.body).expect("response parses");
        assert_eq!(parsed.name, sample.name);
        assert!(!parsed.cached);
        assert_eq!(
            parsed.prediction, direct[&sample.name],
            "wire prediction for {} is not bit-identical",
            sample.name
        );
        let again = client.post("/predict", &body).expect("predict again");
        let parsed_again: PredictResponse =
            serde_json::from_str(&again.body).expect("response parses");
        assert!(parsed_again.cached, "repeat request must hit the cache");
        assert_eq!(parsed_again.prediction, direct[&sample.name]);
    }

    // A named built-in kernel resolves, predicts, and is memoised.
    let kernel = hls_progen::all_kernels().into_iter().next().expect("kernels exist");
    let body = serde_json::to_string(&PredictRequest::for_kernel(&kernel.name)).expect("request");
    let reply = client.post("/predict", &body).expect("kernel predict");
    assert_eq!(reply.status, 200, "body: {}", reply.body);
    let parsed: PredictResponse = serde_json::from_str(&reply.body).expect("parses");
    assert_eq!(parsed.name, kernel.name);
    assert!(parsed.prediction.iter().all(|v| v.is_finite()));

    // Error mapping.
    assert_eq!(client.post("/predict", "{ not json").expect("reply").status, 400);
    assert_eq!(client.post("/predict", "{}").expect("reply").status, 400);
    let both = format!(
        "{{\"kernel\": \"{}\", \"graph\": {}}}",
        kernel.name,
        serde_json::to_string(&hls_gnn_core::export::ExportedGraph::from(&samples[0]))
            .expect("graph serialises")
    );
    assert_eq!(client.post("/predict", &both).expect("reply").status, 400);
    let unknown =
        serde_json::to_string(&PredictRequest::for_kernel("no_such_kernel")).expect("request");
    let reply = client.post("/predict", &unknown).expect("reply");
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("unknown kernel"));
    assert_eq!(client.get("/no-such-route").expect("reply").status, 404);
    assert_eq!(client.get("/predict").expect("reply").status, 405);

    // Stats document.
    let stats_reply = client.get("/stats").expect("stats");
    assert_eq!(stats_reply.status, 200);
    let stats: StatsResponse = serde_json::from_str(&stats_reply.body).expect("stats parse");
    assert_eq!(stats.model, "GCN");
    assert_eq!(stats.spec, "base/gcn");
    assert_eq!(stats.shed, 0);
    assert!(stats.served >= 2 * samples.len() as u64);
    assert!(stats.cache.hits >= samples.len() as u64);
    assert!(stats.latency.p50_us <= stats.latency.p99_us);
    assert!(stats.latency.p99_us <= stats.latency.max_us);

    // Graceful shutdown: /shutdown stops the accept loop; wait() returns.
    let reply = client.post("/shutdown", "").expect("shutdown");
    assert_eq!(reply.status, 200);
    server.wait();
    service.shutdown();
}

/// Hostile bodies well under the 8 MB body cap: a 20 KB nesting bomb (which
/// overflows a handler thread's stack in a recursive decoder without a depth
/// bound, aborting the process) and a ~4 MB string (which pins a handler
/// thread for minutes in a decoder that is quadratic in the body) each get a
/// prompt 400, and the same server keeps answering.
#[test]
fn hostile_bodies_get_a_prompt_400_and_the_server_keeps_serving() {
    let dataset = corpus(6, 41);
    let split = dataset.split(0.7, 0.15, 1);
    let predictor = trained("base/gcn", &split);
    let config = ServeConfig { workers: 1, access_log: false, ..ServeConfig::default() };
    let service =
        ServiceHandle::start(predictor.snapshot().expect("snapshot"), &config).expect("starts");
    let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("binds");
    let mut client = HttpClient::new(server.local_addr());

    let nesting_bomb = "[".repeat(20 * 1024);
    let long_name = format!("{{\"kernel\": \"{}\"}}", "a".repeat(4 * 1024 * 1024));
    for (what, body) in [("nesting bomb", &nesting_bomb), ("4 MB kernel name", &long_name)] {
        let start = std::time::Instant::now();
        let reply = client.post("/predict", body).expect("the server answers");
        let elapsed = start.elapsed();
        let excerpt: String = reply.body.chars().take(200).collect();
        assert_eq!(reply.status, 400, "{what}: {excerpt}");
        // Generous for an unoptimised build on a loaded host.
        assert!(elapsed.as_secs_f64() < 10.0, "{what} took {elapsed:?} to answer");
    }

    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    let body = serde_json::to_string(&PredictRequest::for_sample(&split.test.samples[0]))
        .expect("request");
    let reply = client.post("/predict", &body).expect("predict");
    assert_eq!(reply.status, 200, "body: {}", reply.body);

    server.shutdown();
    service.shutdown();
}
