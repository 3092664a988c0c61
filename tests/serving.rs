//! Acceptance tests for the serving subsystem.
//!
//! The load-bearing guarantee: **served predictions are bit-identical to a
//! direct `predict_batch` call** on the same model and graphs — for worker
//! counts 1 and 4, with the prediction cache enabled and disabled, under
//! concurrent submission, and over the HTTP wire format. Both paths run one
//! design per forward, so which worker answers a request, and when, can
//! never change *what* is predicted. A panic inside the model fails only its
//! own request; the worker keeps serving.

use std::collections::HashMap;

use hls_gnn::prelude::*;
use hls_gnn_serve::{
    sample_fingerprint, HttpClient, HttpServer, Outcome, PredictRequest, PredictResponse,
    ServeConfig, ServeError, ServiceHandle, SlowRequestsResponse,
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
    // requests give the queue and the workers real contention.
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

                // Concurrent submission, one frontend thread per sample, so
                // the workers see real contention in arbitrary order.
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

                let metrics = service.render_metrics();
                let series = |name: &str| metric_value(&metrics, name);
                let n = samples.len() as f64;
                assert_eq!(series("hlsgnn_serve_requests_total"), Some(2.0 * n));
                assert_eq!(series("hlsgnn_serve_served_total"), Some(2.0 * n));
                assert_eq!(series("hlsgnn_serve_shed_total"), Some(0.0));
                assert_eq!(series("hlsgnn_serve_errors_total"), Some(0.0));
                if cache_capacity > 0 {
                    assert_eq!(series("hlsgnn_serve_cache_hits_total"), Some(n));
                    assert_eq!(series("hlsgnn_serve_cache_entries"), Some(n));
                } else {
                    assert_eq!(series("hlsgnn_serve_cache_hits_total"), Some(0.0));
                    assert_eq!(series("hlsgnn_serve_cache_capacity"), Some(0.0));
                }
                assert_eq!(series("hlsgnn_serve_workers"), Some(workers as f64));
                assert!(series("hlsgnn_serve_latency_us_count").is_some_and(|count| count > 0.0));

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

/// `/metrics` is the service's one record of its counts: after a known
/// sequence of requests, sent one at a time, every serving counter, gauge
/// and histogram count reads exactly the value that traffic implies —
/// including cache evictions (forced here with an undersized cache) and the
/// queue-depth/cache gauges.
#[test]
fn metrics_exposition_reports_exact_counts_for_sequential_traffic() {
    let dataset = corpus(10, 17);
    let split = dataset.split(0.7, 0.15, 1);
    let predictor = trained("base/gcn", &split);
    let mut fingerprints: Vec<_> = dataset.samples.iter().map(sample_fingerprint).collect();
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert_eq!(fingerprints.len(), 10, "the expected counts assume 10 distinct designs");
    // Capacity 4 against 10 distinct requests forces LRU evictions; a slow
    // threshold of 0 counts every request as slow.
    let config = ServeConfig {
        workers: 2,
        cache_capacity: 4,
        queue_bound: 32,
        slow_threshold_us: 0,
        ..ServeConfig::default()
    };
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

    let metrics = client.get("/metrics").expect("metrics").body;

    // 13 sequential requests, each answered before the next is sent: the
    // first 10 miss and the 5th to 10th evict; the last 3 re-miss (their
    // entries were evicted) and evict again, leaving a full cache. Each
    // miss is computed alone, so nothing is queued at the end.
    for (name, expected) in [
        ("hlsgnn_serve_requests_total", 13.0),
        ("hlsgnn_serve_served_total", 13.0),
        ("hlsgnn_serve_shed_total", 0.0),
        ("hlsgnn_serve_errors_total", 0.0),
        ("hlsgnn_serve_slow_total", 13.0),
        ("hlsgnn_serve_cache_hits_total", 0.0),
        ("hlsgnn_serve_cache_misses_total", 13.0),
        ("hlsgnn_serve_cache_evictions_total", 9.0),
        ("hlsgnn_serve_latency_us_count", 13.0),
        ("hlsgnn_serve_queue_wait_us_count", 13.0),
        ("hlsgnn_serve_queue_depth", 0.0),
        ("hlsgnn_serve_queue_bound", 32.0),
        ("hlsgnn_serve_cache_entries", 4.0),
        ("hlsgnn_serve_cache_capacity", 4.0),
        ("hlsgnn_serve_workers", 2.0),
    ] {
        assert_eq!(
            metric_value(&metrics, name),
            Some(expected),
            "`{name}` does not match the traffic; exposition:\n{metrics}"
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
/// [`ServeError::Overloaded`] and counted in the metrics.
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

    // Occupy the worker (it sleeps 400 ms per request), then race three
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
    let metrics = service.render_metrics();
    assert_eq!(metric_value(&metrics, "hlsgnn_serve_shed_total"), Some(shed as f64));
    // `requests` counts admissions only; shed requests are not in it.
    assert_eq!(metric_value(&metrics, "hlsgnn_serve_requests_total"), Some(4.0 - shed as f64));
    service.shutdown();
}

/// A panic inside the model fails only its own request. A sample whose
/// per-node feature list is cut to one entry panics in the feature encoder;
/// its caller gets [`ServeError::Model`] (500 over HTTP), the error is
/// counted, and the service's only worker answers the next valid request
/// with the exact bits of `predict`. Each request reports over a channel
/// with a timeout, so a worker lost to the panic fails the test instead of
/// hanging it.
#[test]
fn a_panicking_prediction_fails_its_request_and_the_worker_keeps_serving() {
    let dataset = corpus(6, 43);
    let split = dataset.split(0.7, 0.15, 1);
    let predictor = trained("base/gcn", &split);
    let config =
        ServeConfig { workers: 1, cache_capacity: 0, access_log: false, ..ServeConfig::default() };
    let service =
        ServiceHandle::start(predictor.snapshot().expect("snapshot"), &config).expect("starts");
    let submit = |sample: GraphSample| {
        let (sender, receiver) = std::sync::mpsc::channel();
        let service = service.clone();
        let client = std::thread::spawn(move || sender.send(service.predict_sample(sample)));
        let reply = receiver.recv_timeout(std::time::Duration::from_secs(10));
        // A client still blocked after the timeout is left detached: joining
        // it would turn the failure into the hang this test exists to catch.
        if reply.is_ok() {
            client.join().expect("client thread").expect("the receiver is alive");
        }
        reply
    };

    let valid = split.test.samples[0].clone();
    let mut broken = valid.clone();
    assert!(broken.num_nodes() > 1, "truncation must leave nodes without features");
    broken.node_features.truncate(1);
    let broken_reply = submit(broken).expect("the panicking request is answered");
    let valid_reply = submit(valid.clone())
        .expect("the worker must survive the panic and answer the next request");

    match broken_reply {
        Err(ServeError::Model(error)) => {
            assert!(error.to_string().contains("panicked"), "unexpected model error: {error}");
        }
        other => panic!("a panicking prediction must fail with a model error, got {other:?}"),
    }
    let served = valid_reply.expect("the valid request is served");
    assert_eq!(served.prediction, predictor.predict(&valid).expect("direct prediction"));
    let metrics = service.render_metrics();
    for (name, expected) in [
        ("hlsgnn_serve_requests_total", 2.0),
        ("hlsgnn_serve_served_total", 1.0),
        ("hlsgnn_serve_errors_total", 1.0),
        ("hlsgnn_serve_workers", 1.0),
    ] {
        assert_eq!(metric_value(&metrics, name), Some(expected), "`{name}`:\n{metrics}");
    }
    service.shutdown();
}

/// Request-scoped tracing: concurrent queued requests each get a unique
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
        worker_delay: std::time::Duration::from_millis(150),
        slow_threshold_us: 0,
        access_log: false,
    };
    let service =
        ServiceHandle::start(predictor.snapshot().expect("snapshot"), &config).expect("starts");

    // Occupy the worker, then race five more submissions while it sleeps:
    // they pile up in the queue and wait their turn.
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

    // Threshold 0 captures everything: every request resolved into one
    // slow-ring record with the same ids.
    let slow = service.slow_requests();
    assert_eq!(slow.threshold_us, 0);
    assert_eq!(slow.total, 6);
    let records = slow.requests;
    assert_eq!(records.len(), 6);
    let mut record_ids: Vec<u64> = records.iter().map(|r| r.id).collect();
    record_ids.sort_unstable();
    assert_eq!(record_ids, ids, "request records must carry the served ids");
    for record in &records {
        assert_eq!(record.outcome, Outcome::Served.name());
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

    let metrics = client.get("/metrics").expect("metrics").body;
    assert_eq!(
        metric_value(&metrics, "hlsgnn_serve_slow_total"),
        Some(7.0),
        "every request crossed the 0 µs slow threshold"
    );

    server.shutdown();
    service.shutdown();
}

/// The HTTP frontend end to end: predictions over the wire are bit-identical
/// to direct `predict_batch` (the JSON float encoding is
/// shortest-round-trip), the error paths map to the right statuses, the
/// counts read from the registry, there is no `/stats`, and /shutdown stops
/// the accept loop.
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
    let snapshot = predictor.snapshot().expect("snapshot");
    assert_eq!(snapshot.spec.id(), "base/gcn");
    let service = ServiceHandle::start(snapshot, &config).expect("starts");
    let server = HttpServer::bind(service.clone(), "127.0.0.1:0").expect("binds");
    let mut client = HttpClient::new(server.local_addr());

    // Liveness.
    let health = client.get("/healthz").expect("healthz");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("ok"));
    assert!(health.body.contains("\"model\":\"GCN\""), "healthz: {}", health.body);

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
    // The registry behind `/metrics` is the only record of the counts.
    assert_eq!(client.get("/stats").expect("reply").status, 404);

    // Counts, from the service's registry (labelled with the model name).
    let registry = service.registry();
    let labels = [("model", "GCN")];
    assert_eq!(registry.counter("hlsgnn_serve_shed_total", &labels).get(), 0);
    let served = registry.counter("hlsgnn_serve_served_total", &labels).get();
    assert!(served >= 2 * samples.len() as u64);
    let hits = registry.counter("hlsgnn_serve_cache_hits_total", &labels).get();
    assert!(hits >= samples.len() as u64);
    let latency = registry.histogram("hlsgnn_serve_latency_us", &labels);
    assert!(latency.quantile(0.50) <= latency.quantile(0.99));
    assert!(latency.quantile(0.99) <= latency.max_value());

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
