//! LOGIC: gate-level digital circuit simulation.
//!
//! The paper's cancellation observations (Section 5) come from "digital
//! systems models written in the hardware description language VHDL" —
//! this model recreates that workload class: a netlist of logic gates
//! with propagation delays, driven by stimulus vectors, simulated with
//! classic event-driven semantics (a gate schedules an output event only
//! when its output *changes*).
//!
//! Gate evaluation is a pure function of the gate's latched input values,
//! and output suppression on no-change keeps traffic sparse — after a
//! rollback most gates regenerate exactly the messages they sent before,
//! so digital logic sits on the lazy-friendly end of the spectrum, with
//! occasional misses where a straggler actually flips a signal. That
//! mixture (mostly hits, occasional real misses) is precisely the regime
//! in which the paper observed neither strategy dominating.
//!
//! Virtual time is in gate-delay units (≈ nanoseconds).

use crate::util::clone_field_wise;
use crate::util::spread;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use warp_core::rng::SimRng;
use warp_core::wire::{PayloadReader, PayloadWriter};
use warp_core::{
    DynState, Event, ExecutionContext, LpId, NodeId, ObjectId, ObjectState, Partition, Payload,
    SimObject,
};
use warp_exec::SimulationSpec;

/// A signal transition: (input pin, new value).
pub const K_SIGNAL: u16 = 40;
/// Stimulus self-timer at a driver.
pub const K_STIM: u16 = 41;

/// Supported gate functions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// Logical OR of all inputs.
    Or,
    /// Exclusive OR of all inputs.
    Xor,
    /// NOT of input 0 (single-input).
    Not,
    /// NAND of all inputs.
    Nand,
}

impl GateKind {
    /// Evaluate over the latched inputs.
    pub fn eval(self, inputs: &[bool]) -> bool {
        match self {
            GateKind::And => inputs.iter().all(|&b| b),
            GateKind::Or => inputs.iter().any(|&b| b),
            GateKind::Xor => inputs.iter().fold(false, |a, &b| a ^ b),
            GateKind::Not => !inputs.first().copied().unwrap_or(false),
            GateKind::Nand => !inputs.iter().all(|&b| b),
        }
    }
}

/// One fan-out edge: deliver my output to `gate`'s input pin `pin`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Wire {
    /// Destination gate (object id).
    pub gate: u32,
    /// Destination input pin.
    pub pin: u8,
}

/// Static description of one gate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GateSpec {
    /// Function computed.
    pub kind: GateKind,
    /// Number of input pins.
    pub n_inputs: u8,
    /// Propagation delay in ticks.
    pub delay: u64,
    /// Fan-out.
    pub outputs: Vec<Wire>,
}

/// A stimulus driver toggling a primary input.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DriverSpec {
    /// Mean ticks between toggles.
    pub mean_period: f64,
    /// Toggles to emit.
    pub n_toggles: u64,
    /// Fan-out.
    pub outputs: Vec<Wire>,
}

/// A full netlist: drivers first, then gates (object ids in that order).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Netlist {
    /// Stimulus drivers.
    pub drivers: Vec<DriverSpec>,
    /// Gates.
    pub gates: Vec<GateSpec>,
    /// Logical processes to partition over.
    pub n_lps: usize,
    /// Workload seed (driver jitter).
    pub seed: u64,
}

impl Netlist {
    /// Total simulation objects.
    pub fn n_objects(&self) -> usize {
        self.drivers.len() + self.gates.len()
    }

    /// Generate a random layered combinational netlist: `width` gates per
    /// layer, `depth` layers, each gate fed by gates (or drivers) of the
    /// previous layer. Structure is seed-deterministic.
    pub fn random(
        width: usize,
        depth: usize,
        n_drivers: usize,
        n_lps: usize,
        n_toggles: u64,
        seed: u64,
    ) -> Netlist {
        assert!(width >= 2 && depth >= 1 && n_drivers >= 1);
        let mut rng = SimRng::derive(seed, 0x0D16_17A1);
        let drivers = (0..n_drivers)
            .map(|_| DriverSpec {
                mean_period: 40.0 + rng.below(40) as f64,
                n_toggles,
                outputs: Vec::new(),
            })
            .collect::<Vec<_>>();
        let mut gates: Vec<GateSpec> = Vec::with_capacity(width * depth);
        for layer in 0..depth {
            for _ in 0..width {
                let kind = match rng.below(5) {
                    0 => GateKind::And,
                    1 => GateKind::Or,
                    2 => GateKind::Xor,
                    3 => GateKind::Not,
                    _ => GateKind::Nand,
                };
                let n_inputs = if kind == GateKind::Not { 1 } else { 2 };
                gates.push(GateSpec {
                    kind,
                    n_inputs,
                    delay: 1 + rng.below(4),
                    outputs: Vec::new(),
                });
                let _ = layer;
            }
        }
        // Wire inputs: layer 0 feeds from drivers, layer k from layer k-1.
        let mut net = Netlist {
            drivers,
            gates,
            n_lps,
            seed,
        };
        for layer in 0..depth {
            for g in 0..width {
                let gate_idx = layer * width + g;
                let n_in = net.gates[gate_idx].n_inputs;
                for pin in 0..n_in {
                    let dst = Wire {
                        gate: (n_drivers + gate_idx) as u32,
                        pin,
                    };
                    if layer == 0 {
                        let d = spread(seed ^ (gate_idx as u64) << 8 | pin as u64, 3) as usize
                            % n_drivers;
                        net.drivers[d].outputs.push(dst);
                    } else {
                        let p =
                            spread(seed ^ (gate_idx as u64) << 8 | pin as u64, 11) as usize % width;
                        let src = (layer - 1) * width + p;
                        net.gates[src].outputs.push(dst);
                    }
                }
            }
        }
        net
    }

    /// Partition: blocked by object id (keeps layers together, so signal
    /// propagation crosses LPs at layer boundaries).
    pub fn partition(&self) -> Partition {
        let n = self.n_objects();
        let per = n.div_ceil(self.n_lps);
        let lp_of = (0..n)
            .map(|o| LpId((o / per).min(self.n_lps - 1) as u32))
            .collect();
        let nodes = (0..self.n_lps).map(|l| NodeId(l as u32)).collect();
        Partition::new(lp_of, nodes).expect("logic partition is well formed")
    }

    /// Build the simulation spec.
    pub fn spec(&self) -> SimulationSpec {
        let net = Arc::new(self.clone());
        SimulationSpec::new(
            self.partition(),
            Arc::new(move |id: ObjectId| build_object(&net, id)),
        )
    }
}

fn encode_signal(pin: u8, value: bool) -> Payload {
    let mut w = PayloadWriter::with_capacity(2);
    w.u8(pin).u8(value as u8);
    w.finish()
}

fn decode_signal(payload: &[u8]) -> (u8, bool) {
    let mut r = PayloadReader::new(payload);
    let pin = r.u8().expect("signal pin");
    let value = r.u8().expect("signal value") != 0;
    (pin, value)
}

fn build_object(net: &Arc<Netlist>, id: ObjectId) -> Box<dyn SimObject> {
    let i = id.index();
    if i < net.drivers.len() {
        let spec = net.drivers[i].clone();
        Box::new(Driver {
            me: id.0,
            spec,
            state: DriverState {
                rng: SimRng::derive(net.seed, id.0 as u64),
                level: false,
                emitted: 0,
            },
        })
    } else {
        let spec = net.gates[i - net.drivers.len()].clone();
        let n = spec.n_inputs as usize;
        Box::new(Gate {
            me: id.0,
            spec,
            state: GateState {
                inputs: vec![false; n],
                output: false,
            },
        })
    }
}

// -------------------------------------------------------------- Driver --

#[derive(Clone, Debug)]
struct DriverState {
    rng: SimRng,
    level: bool,
    emitted: u64,
}
impl ObjectState for DriverState {
    fn encode(&self, w: &mut PayloadWriter) {
        self.rng.encode(w);
        w.bool(self.level).u64(self.emitted);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        Ok(DriverState {
            rng: SimRng::decode(r)?,
            level: r.bool()?,
            emitted: r.u64()?,
        })
    }
}

struct Driver {
    me: u32,
    spec: DriverSpec,
    state: DriverState,
}

impl Driver {
    fn schedule(&mut self, ctx: &mut dyn ExecutionContext) {
        if self.state.emitted >= self.spec.n_toggles {
            return;
        }
        let gap = self.state.rng.exp_ticks(self.spec.mean_period);
        ctx.send(ctx.me(), gap, K_STIM, Payload::new());
    }
}

impl SimObject for Driver {
    fn name(&self) -> String {
        format!("driver-{}", self.me)
    }
    fn init(&mut self, ctx: &mut dyn ExecutionContext) {
        self.schedule(ctx);
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_STIM);
        self.state.level = !self.state.level;
        self.state.emitted += 1;
        for w in &self.spec.outputs {
            ctx.send(
                ObjectId(w.gate),
                1,
                K_SIGNAL,
                encode_signal(w.pin, self.state.level),
            );
        }
        self.schedule(ctx);
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

// ---------------------------------------------------------------- Gate --

#[derive(Debug)]
struct GateState {
    inputs: Vec<bool>,
    output: bool,
}
clone_field_wise!(GateState: inputs, output);
impl ObjectState for GateState {
    fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.inputs.len()
    }
    fn encode(&self, w: &mut PayloadWriter) {
        w.u32(self.inputs.len() as u32);
        for &i in &self.inputs {
            w.bool(i);
        }
        w.bool(self.output);
    }
    fn decode(r: &mut PayloadReader<'_>) -> Result<Self, warp_core::KernelError> {
        let n = r.count(1)?;
        let inputs = (0..n).map(|_| r.bool()).collect::<Result<_, _>>()?;
        Ok(GateState {
            inputs,
            output: r.bool()?,
        })
    }
}

struct Gate {
    me: u32,
    spec: GateSpec,
    state: GateState,
}

impl SimObject for Gate {
    fn name(&self) -> String {
        format!("gate-{}", self.me)
    }
    fn execute(&mut self, ctx: &mut dyn ExecutionContext, ev: &Event) {
        debug_assert_eq!(ev.kind, K_SIGNAL);
        let (pin, value) = decode_signal(&ev.payload);
        self.state.inputs[pin as usize] = value;
        let new_out = self.spec.kind.eval(&self.state.inputs);
        if new_out != self.state.output {
            // Event-driven semantics: propagate only on change.
            self.state.output = new_out;
            for w in &self.spec.outputs {
                ctx.send(
                    ObjectId(w.gate),
                    self.spec.delay,
                    K_SIGNAL,
                    encode_signal(w.pin, new_out),
                );
            }
        }
    }
    fn state(&self) -> &dyn DynState {
        &self.state
    }
    fn state_mut(&mut self) -> &mut dyn DynState {
        &mut self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use warp_exec::{run_sequential, run_virtual};

    #[test]
    fn gate_functions_truth_tables() {
        assert!(GateKind::And.eval(&[true, true]));
        assert!(!GateKind::And.eval(&[true, false]));
        assert!(GateKind::Or.eval(&[false, true]));
        assert!(!GateKind::Or.eval(&[false, false]));
        assert!(GateKind::Xor.eval(&[true, false]));
        assert!(!GateKind::Xor.eval(&[true, true]));
        assert!(GateKind::Not.eval(&[false]));
        assert!(!GateKind::Not.eval(&[true]));
        assert!(GateKind::Nand.eval(&[true, false]));
        assert!(!GateKind::Nand.eval(&[true, true]));
    }

    #[test]
    fn signal_roundtrip() {
        let (pin, v) = decode_signal(&encode_signal(3, true));
        assert_eq!((pin, v), (3, true));
    }

    #[test]
    fn random_netlist_is_wired_completely() {
        let net = Netlist::random(6, 4, 3, 4, 10, 42);
        assert_eq!(net.n_objects(), 3 + 24);
        // Every gate input pin is driven exactly once.
        let mut fanin = vec![0u32; net.n_objects()];
        for d in &net.drivers {
            for w in &d.outputs {
                fanin[w.gate as usize] += 1;
            }
        }
        for g in &net.gates {
            for w in &g.outputs {
                fanin[w.gate as usize] += 1;
            }
        }
        for (i, g) in net.gates.iter().enumerate() {
            assert_eq!(
                fanin[net.drivers.len() + i],
                g.n_inputs as u32,
                "gate {i} fan-in mismatch"
            );
        }
        // Determinism of generation.
        let again = Netlist::random(6, 4, 3, 4, 10, 42);
        assert_eq!(format!("{net:?}"), format!("{again:?}"));
    }

    #[test]
    fn virtual_matches_sequential() {
        let net = Netlist::random(8, 5, 4, 4, 40, 7);
        let spec = net.spec().with_gvt_period(None).with_traces();
        let seq = run_sequential(&spec);
        let tw = run_virtual(&spec);
        assert_eq!(seq.committed_events, tw.committed_events);
        assert_eq!(seq.trace_digests(), tw.trace_digests());
        assert!(seq.committed_events > 100, "circuit never switched");
    }

    #[test]
    fn logic_is_hit_rich_under_lazy_cancellation() {
        use warp_core::policy::{
            CancellationMode, FixedCancellation, FixedCheckpoint, ObjectPolicies,
        };
        let net = Netlist::random(10, 6, 5, 4, 150, 3);
        let spec = net
            .spec()
            .with_gvt_period(None)
            .with_policies(Arc::new(|_| {
                ObjectPolicies::new(
                    Box::new(FixedCancellation(CancellationMode::Lazy)),
                    Box::new(FixedCheckpoint::new(4)),
                )
            }));
        let tw = run_virtual(&spec);
        assert!(
            tw.kernel.rollbacks() > 0,
            "no rollbacks — enlarge the circuit"
        );
        let hits = tw.kernel.lazy_hits;
        let misses = tw.kernel.lazy_misses;
        assert!(
            hits > misses,
            "gate re-evaluation mostly regenerates identical transitions: {hits}h/{misses}m"
        );
    }

    #[test]
    fn half_adder_computes() {
        // A hand-wired half adder: driver a, driver b; XOR -> sum,
        // AND -> carry. Checked by counting events (both outputs switch).
        let net = Netlist {
            drivers: vec![
                DriverSpec {
                    mean_period: 50.0,
                    n_toggles: 8,
                    outputs: vec![Wire { gate: 2, pin: 0 }, Wire { gate: 3, pin: 0 }],
                },
                DriverSpec {
                    mean_period: 70.0,
                    n_toggles: 8,
                    outputs: vec![Wire { gate: 2, pin: 1 }, Wire { gate: 3, pin: 1 }],
                },
            ],
            gates: vec![
                GateSpec {
                    kind: GateKind::Xor,
                    n_inputs: 2,
                    delay: 2,
                    outputs: vec![],
                },
                GateSpec {
                    kind: GateKind::And,
                    n_inputs: 2,
                    delay: 2,
                    outputs: vec![],
                },
            ],
            n_lps: 2,
            seed: 5,
        };
        let spec = net.spec().with_gvt_period(None).with_traces();
        let seq = run_sequential(&spec);
        let tw = run_virtual(&spec);
        assert_eq!(seq.trace_digests(), tw.trace_digests());
        // 16 stimulus self-events + 16 signal deliveries per gate input
        // chain: just require the adder actually computed.
        assert!(seq.committed_events >= 16 + 32);
    }
}

/// Builders for hand-wired reference circuits (also used by tests).
pub mod circuits {
    use super::*;

    /// An n-bit ripple-carry adder netlist.
    ///
    /// Drivers: `a`-bits (objects `0..n`), `b`-bits (`n..2n`), and a
    /// constant-0 carry-in (`2n`). Per bit, five gates in the classic
    /// full-adder arrangement; returns the netlist plus the object ids of
    /// the sum gates (LSB first) and of the final carry-out gate.
    pub fn ripple_carry_adder(
        n_bits: usize,
        a: u64,
        b: u64,
        n_lps: usize,
        seed: u64,
    ) -> (Netlist, Vec<u32>, u32) {
        assert!((1..=63).contains(&n_bits));
        let n_drivers = 2 * n_bits + 1;
        let gate_id = |bit: usize, which: usize| (n_drivers + bit * 5 + which) as u32;
        // which: 0=X1, 1=X2(sum), 2=A1, 3=A2, 4=OR(cout)
        let mut drivers = Vec::with_capacity(n_drivers);
        for bit in 0..n_bits {
            drivers.push(DriverSpec {
                mean_period: 20.0,
                n_toggles: u64::from(a >> bit & 1 == 1),
                outputs: vec![
                    Wire {
                        gate: gate_id(bit, 0),
                        pin: 0,
                    },
                    Wire {
                        gate: gate_id(bit, 2),
                        pin: 0,
                    },
                ],
            });
        }
        for bit in 0..n_bits {
            drivers.push(DriverSpec {
                mean_period: 20.0,
                n_toggles: u64::from(b >> bit & 1 == 1),
                outputs: vec![
                    Wire {
                        gate: gate_id(bit, 0),
                        pin: 1,
                    },
                    Wire {
                        gate: gate_id(bit, 2),
                        pin: 1,
                    },
                ],
            });
        }
        // Constant-0 carry-in: a driver that never toggles.
        drivers.push(DriverSpec {
            mean_period: 20.0,
            n_toggles: 0,
            outputs: vec![
                Wire {
                    gate: gate_id(0, 1),
                    pin: 1,
                },
                Wire {
                    gate: gate_id(0, 3),
                    pin: 1,
                },
            ],
        });

        let mut gates = Vec::with_capacity(5 * n_bits);
        for bit in 0..n_bits {
            let carry_out_targets = if bit + 1 < n_bits {
                vec![
                    Wire {
                        gate: gate_id(bit + 1, 1),
                        pin: 1,
                    },
                    Wire {
                        gate: gate_id(bit + 1, 3),
                        pin: 1,
                    },
                ]
            } else {
                Vec::new()
            };
            // X1 = a ^ b
            gates.push(GateSpec {
                kind: GateKind::Xor,
                n_inputs: 2,
                delay: 1,
                outputs: vec![
                    Wire {
                        gate: gate_id(bit, 1),
                        pin: 0,
                    },
                    Wire {
                        gate: gate_id(bit, 3),
                        pin: 0,
                    },
                ],
            });
            // X2 = X1 ^ cin  (the sum bit; no fan-out)
            gates.push(GateSpec {
                kind: GateKind::Xor,
                n_inputs: 2,
                delay: 1,
                outputs: vec![],
            });
            // A1 = a & b
            gates.push(GateSpec {
                kind: GateKind::And,
                n_inputs: 2,
                delay: 1,
                outputs: vec![Wire {
                    gate: gate_id(bit, 4),
                    pin: 0,
                }],
            });
            // A2 = X1 & cin
            gates.push(GateSpec {
                kind: GateKind::And,
                n_inputs: 2,
                delay: 1,
                outputs: vec![Wire {
                    gate: gate_id(bit, 4),
                    pin: 1,
                }],
            });
            // OR = A1 | A2  (the carry out)
            gates.push(GateSpec {
                kind: GateKind::Or,
                n_inputs: 2,
                delay: 1,
                outputs: carry_out_targets,
            });
        }
        let sums = (0..n_bits).map(|bit| gate_id(bit, 1)).collect();
        let cout = gate_id(n_bits - 1, 4);
        (
            Netlist {
                drivers,
                gates,
                n_lps,
                seed,
            },
            sums,
            cout,
        )
    }
}

#[cfg(test)]
mod adder_tests {
    use super::circuits::ripple_carry_adder;
    use super::*;
    use warp_exec::{run_virtual_inspect, VirtualOptions};

    fn gate_output(lps: &[warp_core::LpRuntime], id: u32) -> bool {
        for lp in lps {
            for o in lp.objects() {
                if o.id().0 == id {
                    return o.state().get::<GateState>().output;
                }
            }
        }
        panic!("gate {id} not found");
    }

    /// The optimistic kernel must *compute correct arithmetic*: build an
    /// adder, feed operands as bit toggles, and read the settled outputs
    /// — a semantic end-to-end check, not just engine-vs-engine equality.
    #[test]
    fn ripple_carry_adder_adds() {
        for (a, b, seed) in [
            (0u64, 0u64, 1u64),
            (5, 3, 2),
            (255, 1, 3),
            (0b1010_1100, 0b0110_0110, 4),
            (97, 158, 5),
        ] {
            let n_bits = 8;
            let (net, sums, cout) = ripple_carry_adder(n_bits, a, b, 3, seed);
            let spec = net.spec().with_gvt_period(None);
            let mut got = 0u64;
            let mut carry = false;
            run_virtual_inspect(&spec, &VirtualOptions::default(), |lps| {
                for (bit, &sum_gate) in sums.iter().enumerate() {
                    if gate_output(lps, sum_gate) {
                        got |= 1 << bit;
                    }
                }
                carry = gate_output(lps, cout);
            });
            let expect = a + b;
            let expect_bits = expect & ((1 << n_bits) - 1);
            let expect_carry = expect >> n_bits & 1 == 1;
            assert_eq!(got, expect_bits, "{a} + {b}: sum bits wrong");
            assert_eq!(carry, expect_carry, "{a} + {b}: carry wrong");
        }
    }
}
