//! `label`: generate one seeded control-flow program and label it through
//! the HLS flow — the paper's benchmark-construction path. progen, ir,
//! hlsim and analyze do all the work; tensor and serve do none.
//!
//! Untraced, an op is `ProgramGenerator::generate` plus
//! `GraphSample::from_function`. Traced, `from_function` is replaced by
//! [`traced_sample`], which makes the same public calls in the same order
//! with a span around each, so every layer's self time is measured.

use std::time::Duration;

use gnn::GraphData;
use hls_gnn_analyze::bounds::analyze_bounds;
use hls_gnn_core::dataset::{Dataset, GraphSample};
use hls_gnn_core::hls_baseline_mape;
use hls_ir::ast::Function;
use hls_ir::features::{edge_features, node_features, EdgeFeatures};
use hls_ir::graph::{extract_from_ir, GraphKind};
use hls_progen::{ProgramGenerator, SyntheticConfig};
use hls_sim::{FlowResult, FpgaDevice, HlsReport};

use crate::clock::Stamp;
use crate::stats::{mean, percentile};
use crate::{checks, trace, Layers, Phase, Workload};

/// `mape_pct` covers the first this many programs of the seed, so it does
/// not depend on how many ops fit in the run.
const MAPE_PROGRAMS: usize = 8192;
/// Programs labelled in set-up to warm caches and the allocator; drawn from
/// a different seed than the timed ops.
const WARMUP_PROGRAMS: usize = 128;
const WARMUP_SEED_SALT: u64 = 0x5741_524d;

pub struct Label {
    generator: ProgramGenerator,
    device: FpgaDevice,
    /// Graph-level labels of the first programs, for `mape_pct`.
    first: Vec<GraphSample>,
    nodes: Vec<f64>,
}

impl Label {
    fn label_one(&mut self) -> Result<GraphSample, String> {
        let func = trace::span("progen.generate", || self.generator.generate());
        if trace::enabled() {
            traced_sample(&func, &self.device)
        } else {
            GraphSample::from_function(&func, GraphKind::Cdfg, &self.device)
                .map_err(|error| error.to_string())
        }
    }

    fn keep_for_mape(&mut self, sample: &GraphSample) {
        if self.first.len() < MAPE_PROGRAMS {
            self.first.push(labels_only(sample));
        }
    }
}

/// The sample's graph-level labels with its graph reduced to one node.
fn labels_only(sample: &GraphSample) -> GraphSample {
    GraphSample {
        name: sample.name.clone(),
        kind: sample.kind,
        structure: GraphData::new(1, Vec::new(), Vec::new(), Vec::new(), 1),
        node_features: Vec::new(),
        node_aux_resources: Vec::new(),
        node_resource_types: Vec::new(),
        node_analytic: Vec::new(),
        targets: sample.targets,
        hls_estimate: sample.hls_estimate,
    }
}

impl Workload for Label {
    fn setup(seed: u64) -> Result<Self, String> {
        let device = FpgaDevice::default();
        let mut warmup = ProgramGenerator::new(SyntheticConfig::control(), seed ^ WARMUP_SEED_SALT);
        for func in warmup.generate_iter(WARMUP_PROGRAMS) {
            GraphSample::from_function(&func, GraphKind::Cdfg, &device)
                .map_err(|error| format!("warm-up program {}: {error}", func.name))?;
        }
        Ok(Label {
            generator: ProgramGenerator::new(SyntheticConfig::control(), seed),
            device,
            first: Vec::with_capacity(MAPE_PROGRAMS),
            nodes: Vec::new(),
        })
    }

    fn measure(&mut self, budget: Duration) -> Phase {
        let mut phase = Phase::default();
        self.nodes.clear();
        let started = Stamp::now();
        while started.elapsed().wall < budget {
            let op = Stamp::now();
            let labelled = trace::span("label.op", || self.label_one());
            phase.op(op.elapsed());
            phase.designs += 1;
            let sample = labelled.and_then(|sample| {
                checks::labelled_sample(&sample)?;
                Ok(sample)
            });
            if let Ok(sample) = &sample {
                self.nodes.push(sample.num_nodes() as f64);
                self.keep_for_mape(sample);
            }
            phase.check(sample.map(drop));
        }
        phase.time = started.elapsed();
        let mut nodes = self.nodes.clone();
        nodes.sort_by(f64::total_cmp);
        phase.record = vec![("nodes_mean", mean(&nodes)), ("nodes_p90", percentile(&nodes, 0.9))];
        phase
    }

    fn mape_pct(&mut self) -> f64 {
        // Continue the seed's program sequence untimed when the run ended
        // before MAPE_PROGRAMS ops.
        while self.first.len() < MAPE_PROGRAMS {
            match self.label_one() {
                Ok(sample) => self.keep_for_mape(&sample),
                Err(_) => return f64::NAN,
            }
        }
        100.0 * mean(&hls_baseline_mape(&Dataset::new(self.first.clone())))
    }

    fn layers(&mut self, traced: &Phase, spans: &[trace::Span]) -> Result<Layers, String> {
        let ops = traced.wall_us.len().max(1) as f64;
        let totals = trace::self_times(spans);
        let per_op = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e3 / ops);
        let mut layers: Vec<(&'static str, f64)> = [
            ("progen.generate_us", "progen.generate"),
            ("ir.lower_us", "ir.lower"),
            ("ir.verify_us", "ir.verify"),
            ("hlsim.schedule_us", "hlsim.schedule"),
            ("hlsim.bind_us", "hlsim.bind"),
            ("hlsim.implement_us", "hlsim.implement"),
            ("ir.extract_us", "ir.extract"),
            ("analyze.bounds_us", "analyze.bounds"),
            ("core.sample_self_us", "core.from_function"),
        ]
        .into_iter()
        .map(|(metric, span)| (metric, per_op(span)))
        .collect();
        let attributed: f64 = layers.iter().map(|(_, value)| value).sum();
        let op_us =
            spans.iter().filter(|s| s.name == "label.op").map(|s| s.duration_ns()).sum::<u64>()
                as f64
                / 1e3
                / ops;
        layers.push(("label.nodes_mean", mean(&self.nodes)));
        layers.push(("trace.attributed_pct", 100.0 * attributed / op_us.max(1e-9)));
        Ok(layers)
    }
}

/// `GraphSample::from_function` for a CDFG, spelled out as the public calls
/// it makes (through `hls_sim::run_flow`), each inside a span. The result is
/// identical to `from_function`'s; the tests check that.
pub fn traced_sample(func: &Function, device: &FpgaDevice) -> Result<GraphSample, String> {
    trace::span("core.from_function", || {
        let ir = trace::span("ir.lower", || hls_ir::lower::lower_function(func))
            .map_err(|error| error.to_string())?;
        let decls: Vec<_> = func.vars().map(|(id, decl)| (id, decl.ty)).collect();
        trace::span("ir.verify", || hls_ir::verify::verify_function(&ir))
            .map_err(|diagnostics| hls_ir::Error::Verification(diagnostics).to_string())?;
        let schedule = trace::span("hlsim.schedule", || {
            hls_sim::schedule::schedule_function(&ir, &decls, device)
        })
        .map_err(|error| error.to_string())?;
        let (binding, hls_report) = trace::span("hlsim.bind", || {
            let binding = hls_sim::bind::bind(&ir, &schedule, device);
            let report = HlsReport::from_binding(&binding, &schedule);
            (binding, report)
        });
        let (implementation, annotations) = trace::span("hlsim.implement", || {
            hls_sim::implementation::implement(&ir, &decls, &schedule, &binding, device)
        });
        let flow = FlowResult { ir, schedule, binding, hls_report, implementation, annotations };

        let (graph, features, edges) = trace::span("ir.extract", || {
            extract_from_ir(&flow.ir, GraphKind::Cdfg).map(|graph| {
                let features = node_features(&graph);
                let edges = edge_features(&graph);
                (graph, features, edges)
            })
        })
        .map_err(|error| error.to_string())?;
        let structure = GraphData::new(
            graph.node_count(),
            graph.edges().iter().map(|e| e.src.index()).collect(),
            graph.edges().iter().map(|e| e.dst.index()).collect(),
            edges.iter().map(EdgeFeatures::relation).collect(),
            EdgeFeatures::RELATION_VOCAB,
        )
        .with_reverse_edges();
        let decls: Vec<_> = func.vars().map(|(id, decl)| (id, decl.ty)).collect();
        let bounds = trace::span("analyze.bounds", || analyze_bounds(&flow.ir, &decls, device));

        let annotations = flow.annotations_by_op();
        let mut node_aux_resources = Vec::with_capacity(graph.node_count());
        let mut node_resource_types = Vec::with_capacity(graph.node_count());
        let mut node_analytic = Vec::with_capacity(graph.node_count());
        for node in graph.nodes() {
            node_analytic.push(node.op.map_or([0.0; 3], |op| bounds.node_features(op)));
            match node.op.and_then(|op| annotations.get(&op)) {
                Some(annotation) => {
                    node_aux_resources.push([
                        annotation.hls.dsp as f32,
                        annotation.hls.lut as f32,
                        annotation.hls.ff as f32,
                    ]);
                    node_resource_types.push(annotation.types.as_labels());
                }
                None => {
                    node_aux_resources.push([0.0; 3]);
                    node_resource_types.push([0.0; 3]);
                }
            }
        }
        Ok(GraphSample {
            name: func.name.clone(),
            kind: GraphKind::Cdfg,
            structure,
            node_features: features,
            node_aux_resources,
            node_resource_types,
            node_analytic,
            targets: flow.implementation.as_targets(),
            hls_estimate: flow.hls_report.as_targets(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_sample_equals_from_function() {
        let device = FpgaDevice::default();
        let mut generator = ProgramGenerator::new(SyntheticConfig::control(), 11);
        for func in generator.generate_iter(8) {
            let want = GraphSample::from_function(&func, GraphKind::Cdfg, &device).expect("labels");
            assert_eq!(traced_sample(&func, &device), Ok(want));
        }
    }
}
