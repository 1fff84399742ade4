//! The simulation specification: everything an executive needs to stage a
//! run — the model (object factory), the partition, the cost model, and
//! the configuration under test (policies + aggregation).
//!
//! Factories are `Fn` (not `FnOnce`): the same spec can be run repeatedly
//! and by different executives, which is exactly how the experiments
//! compare configurations on identical workloads.

use std::sync::Arc;
use warp_core::policy::ObjectPolicies;
use warp_core::{CostModel, LpId, LpRuntime, ObjectId, Partition, SimObject};
use warp_net::AggregationConfig;

/// Builds a fresh simulation object for an id.
pub type ObjectFactory = Arc<dyn Fn(ObjectId) -> Box<dyn SimObject> + Send + Sync>;

/// Builds the per-object policy pair (cancellation selector + checkpoint
/// tuner) for an id.
pub type PolicyFactory = Arc<dyn Fn(ObjectId) -> ObjectPolicies + Send + Sync>;

/// A complete, repeatable description of one simulation run.
#[derive(Clone)]
pub struct SimulationSpec {
    /// Object → LP → node placement.
    pub partition: Arc<Partition>,
    /// Modeled costs of kernel and communication actions.
    pub cost: CostModel,
    /// Message aggregation policy for cross-LP traffic.
    pub aggregation: AggregationConfig,
    /// Seconds between GVT rounds (and fossil collections), on the
    /// executive's clock (modeled on the virtual cluster, wall on the real
    /// executives).
    /// `None` disables GVT-driven fossil collection — memory then grows
    /// with the run, which is only acceptable for tests that inspect the
    /// full committed history.
    pub gvt_period: Option<f64>,
    /// Model factory.
    pub objects: ObjectFactory,
    /// Policy factory.
    pub policies: PolicyFactory,
    /// Record per-object committed-trace digests in the report. Fossil
    /// collection folds what it drops into each object's digest, so the
    /// digests stay whole with any `gvt_period`.
    pub collect_traces: bool,
    /// Record runtime telemetry: per-GVT-round metric samples and the
    /// control trajectory (every χ tuner invocation, cancellation flip,
    /// and DyMA window change). Strictly observational — a run's
    /// committed trace is identical with this on or off.
    pub telemetry: bool,
}

impl SimulationSpec {
    /// Spec with the paper's baseline configuration: checkpoint every
    /// event, aggressive cancellation, no aggregation, GVT every 50 ms.
    pub fn new(partition: Partition, objects: ObjectFactory) -> Self {
        SimulationSpec {
            partition: Arc::new(partition),
            cost: CostModel::sparc_now_10mbps(),
            aggregation: AggregationConfig::Unaggregated,
            gvt_period: Some(0.05),
            objects,
            policies: Arc::new(|_| ObjectPolicies::default()),
            collect_traces: false,
            telemetry: false,
        }
    }

    /// Replace the cost model.
    pub fn with_cost(mut self, cost: CostModel) -> Self {
        cost.validate().expect("invalid cost model");
        self.cost = cost;
        self
    }

    /// Replace the aggregation configuration.
    pub fn with_aggregation(mut self, aggregation: AggregationConfig) -> Self {
        self.aggregation = aggregation;
        self
    }

    /// Replace the per-object policy factory.
    pub fn with_policies(mut self, policies: PolicyFactory) -> Self {
        self.policies = policies;
        self
    }

    /// Replace the GVT period (`None` disables fossil collection).
    pub fn with_gvt_period(mut self, period: Option<f64>) -> Self {
        if let Some(p) = period {
            assert!(p > 0.0 && p.is_finite(), "GVT period must be positive");
        }
        self.gvt_period = period;
        self
    }

    /// Enable committed-trace digests in the report.
    pub fn with_traces(mut self) -> Self {
        self.collect_traces = true;
        self
    }

    /// Enable telemetry recording (metric samples + control trajectory).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Instantiate the LP runtimes for a run.
    pub(crate) fn build_lps(&self) -> Vec<LpRuntime> {
        self.partition.lps().map(|lp| self.build_lp(lp)).collect()
    }

    /// Instantiate a single LP runtime (the threaded executive builds LPs
    /// where their threads live; kernel benchmarks drive one directly).
    pub fn build_lp(&self, lp: LpId) -> LpRuntime {
        let objects = self
            .partition
            .objects_of(lp)
            .iter()
            .map(|&id| warp_core::ObjectRuntime::new(id, (self.objects)(id), (self.policies)(id)))
            .collect();
        let mut rt = LpRuntime::new(lp, self.partition.clone(), objects, self.cost.clone());
        rt.set_record_control(self.telemetry);
        rt.set_collect_traces(self.collect_traces);
        rt
    }
}
