//! Behavioral pulse-level simulation of SFQ logic elements.
//!
//! This is the functional half of our substitute for the paper's JSIM
//! (SPICE-level) verification, which this reproduction does not run: an
//! event-driven simulator in which information is carried by discrete SFQ
//! pulses and each Table I cell is modeled behaviorally with its published
//! latency. It verifies that the building blocks the Unit is made of — in
//! particular the DRO-based `Reg` shift register and the merger/splitter
//! fabric — behave as the architecture requires, and it reproduces
//! arrival-time measurements for small circuits.
//!
//! The model is deliberately digital: pulses are instantaneous events;
//! storage cells hold one flux quantum; timing is additive per cell. That
//! is exactly the abstraction level the paper's architecture section
//! reasons at.

use crate::cells::CellKind;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Port index within an element (meaning depends on [`CellKind`]):
///
/// | cell | inputs | outputs |
/// |---|---|---|
/// | splitter | 0 = in | 0, 1 |
/// | merger | 0, 1 = in | 0 |
/// | 1:2 switch | 0 = data, 1 = select-out-0, 2 = select-out-1 | 0, 1 |
/// | DRO | 0 = data, 1 = clock | 0 |
/// | NDRO | 0 = set, 1 = reset, 2 = read | 0 |
/// | RD | 0 = data, 1 = clock, 2 = reset | 0 |
/// | D2 | 0 = data, 1 = clock | 0 = true, 1 = complement |
pub type Port = usize;

/// Handle to an element instance in a [`PulseNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(usize);

/// An external input pin of the netlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InputId(usize);

struct Element {
    kind: CellKind,
    /// `state` meaning: stored flux (DRO/NDRO/RD/D2), selected route
    /// (switch: 0 or 1).
    state: u8,
    /// Fan-out per output port: `(element, port)` destinations.
    fanout: Vec<Vec<(usize, Port)>>,
    /// Probe labels per output port (empty = unprobed).
    probes: Vec<Option<String>>,
}

/// A recorded pulse observation at a probe.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// Probe label.
    pub probe: String,
    /// Arrival time in ps.
    pub time_ps: f64,
}

#[derive(Debug, PartialEq)]
struct Event {
    time_ps: f64,
    target: usize,
    port: Port,
    seq: u64,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time_ps
            .total_cmp(&other.time_ps)
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// An event-driven netlist of behavioral SFQ cells.
///
/// # Example
///
/// A DRO stores a data pulse and releases it on the next clock:
///
/// ```
/// use qecool_sfq::cells::CellKind;
/// use qecool_sfq::pulse::PulseNetlist;
///
/// let mut net = PulseNetlist::new();
/// let dro = net.add_element(CellKind::Dro);
/// let data = net.add_input(dro, 0);
/// let clock = net.add_input(dro, 1);
/// net.probe(dro, 0, "q");
///
/// net.inject(data, 0.0);
/// net.inject(clock, 100.0);
/// let obs = net.run();
/// assert_eq!(obs.len(), 1);
/// assert!((obs[0].time_ps - 105.1).abs() < 1e-9); // 100 + DRO latency
/// ```
#[derive(Default)]
pub struct PulseNetlist {
    elements: Vec<Element>,
    /// External inputs: destination `(element, port)` lists.
    inputs: Vec<Vec<(usize, Port)>>,
    pending: Vec<(f64, usize)>,
}

impl std::fmt::Debug for PulseNetlist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PulseNetlist")
            .field("elements", &self.elements.len())
            .field("inputs", &self.inputs.len())
            .field("pending", &self.pending.len())
            .finish()
    }
}

impl PulseNetlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instantiates one behavioral cell.
    pub fn add_element(&mut self, kind: CellKind) -> ElementId {
        let outputs = match kind {
            CellKind::Splitter | CellKind::Switch12 | CellKind::DualOutputDro => 2,
            _ => 1,
        };
        self.elements.push(Element {
            kind,
            state: 0,
            fanout: vec![Vec::new(); outputs],
            probes: vec![None; outputs],
        });
        ElementId(self.elements.len() - 1)
    }

    /// Declares an external input pin driving `(element, port)`.
    pub fn add_input(&mut self, to: ElementId, port: Port) -> InputId {
        self.inputs.push(vec![(to.0, port)]);
        InputId(self.inputs.len() - 1)
    }

    /// Connects output `from_port` of `from` to input `to_port` of `to`
    /// (zero-delay wire; model explicit JTL delay with a splitter chain if
    /// needed).
    pub fn connect(&mut self, from: ElementId, from_port: Port, to: ElementId, to_port: Port) {
        self.elements[from.0].fanout[from_port].push((to.0, to_port));
    }

    /// Labels output `port` of `element` as an observation probe.
    pub fn probe(&mut self, element: ElementId, port: Port, label: &str) {
        self.elements[element.0].probes[port] = Some(label.to_owned());
    }

    /// Schedules an external pulse on an input pin at `time_ps`.
    pub fn inject(&mut self, input: InputId, time_ps: f64) {
        self.pending.push((time_ps, input.0));
    }

    /// Runs the simulation to quiescence and returns all probe
    /// observations in time order.
    pub fn run(&mut self) -> Vec<Observation> {
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut seq = 0u64;
        for (t, input) in self.pending.drain(..) {
            for &(el, port) in &self.inputs[input] {
                heap.push(Reverse(Event {
                    time_ps: t,
                    target: el,
                    port,
                    seq,
                }));
                seq += 1;
            }
        }
        let mut observations = Vec::new();
        while let Some(Reverse(ev)) = heap.pop() {
            let emissions = self.deliver(ev.target, ev.port);
            for (out_port, delay) in emissions {
                let t_out = ev.time_ps + delay;
                let el = &self.elements[ev.target];
                if let Some(label) = &el.probes[out_port] {
                    observations.push(Observation {
                        probe: label.clone(),
                        time_ps: t_out,
                    });
                }
                for &(to, to_port) in &el.fanout[out_port] {
                    heap.push(Reverse(Event {
                        time_ps: t_out,
                        target: to,
                        port: to_port,
                        seq,
                    }));
                    seq += 1;
                }
            }
        }
        observations.sort_by(|a, b| a.time_ps.total_cmp(&b.time_ps));
        observations
    }

    /// Behavioral model: a pulse lands on `port` of element `idx`; returns
    /// `(output port, latency)` emissions.
    fn deliver(&mut self, idx: usize, port: Port) -> Vec<(Port, f64)> {
        let kind = self.elements[idx].kind;
        let latency = kind.params().latency_ps;
        let state = &mut self.elements[idx].state;
        match kind {
            CellKind::Splitter => vec![(0, latency), (1, latency)],
            CellKind::Merger => vec![(0, latency)],
            CellKind::Switch12 => match port {
                0 => vec![(usize::from(*state == 1), latency)],
                1 => {
                    *state = 0;
                    vec![]
                }
                _ => {
                    *state = 1;
                    vec![]
                }
            },
            CellKind::Dro => match port {
                0 => {
                    *state = 1;
                    vec![]
                }
                _ => {
                    if *state == 1 {
                        *state = 0;
                        vec![(0, latency)]
                    } else {
                        vec![]
                    }
                }
            },
            CellKind::Ndro => match port {
                0 => {
                    *state = 1;
                    vec![]
                }
                1 => {
                    *state = 0;
                    vec![]
                }
                _ => {
                    if *state == 1 {
                        vec![(0, latency)]
                    } else {
                        vec![]
                    }
                }
            },
            CellKind::ResettableDro => match port {
                0 => {
                    *state = 1;
                    vec![]
                }
                1 => {
                    if *state == 1 {
                        *state = 0;
                        vec![(0, latency)]
                    } else {
                        vec![]
                    }
                }
                _ => {
                    *state = 0;
                    vec![]
                }
            },
            CellKind::DualOutputDro => match port {
                0 => {
                    *state = 1;
                    vec![]
                }
                _ => {
                    if *state == 1 {
                        *state = 0;
                        vec![(0, latency)]
                    } else {
                        vec![(1, latency)]
                    }
                }
            },
        }
    }
}

/// Builds an `n`-stage DRO shift register — the architecture of each
/// Unit's `Reg` — with a shared clock line fanned out through splitters.
///
/// Returns `(netlist, data input, clock input)`; the final stage output is
/// probed as `"out"`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn dro_shift_register(n: usize) -> (PulseNetlist, InputId, InputId) {
    assert!(n > 0, "shift register needs at least one stage");
    let mut net = PulseNetlist::new();
    let stages: Vec<ElementId> = (0..n).map(|_| net.add_element(CellKind::Dro)).collect();
    for w in stages.windows(2) {
        net.connect(w[0], 0, w[1], 0);
    }
    net.probe(stages[n - 1], 0, "out");
    let data = net.add_input(stages[0], 0);
    // Clock tree: a splitter chain fans the clock to every stage, reaching
    // stage i after i+1 splitter delays. Data leaving stage i needs a DRO
    // latency on top of stage i's clock, so it always lands at stage i+1
    // *after* that stage's clock edge of the same shift — counter-flow
    // clocking by construction, one stage per clock pulse.
    let clock = if n == 1 {
        net.add_input(stages[0], 1)
    } else {
        let mut prev_clock_port: (ElementId, Port) = (stages[n - 1], 1);
        let mut entry = None;
        for i in (0..n - 1).rev() {
            let sp = net.add_element(CellKind::Splitter);
            net.connect(sp, 0, prev_clock_port.0, prev_clock_port.1);
            net.connect(sp, 1, stages[i], 1);
            prev_clock_port = (sp, 0);
            entry = Some(sp);
        }
        let first = entry.expect("n > 1");
        net.add_input(first, 0)
    };
    (net, data, clock)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitter_duplicates_pulse() {
        let mut net = PulseNetlist::new();
        let sp = net.add_element(CellKind::Splitter);
        let input = net.add_input(sp, 0);
        net.probe(sp, 0, "a");
        net.probe(sp, 1, "b");
        net.inject(input, 10.0);
        let obs = net.run();
        assert_eq!(obs.len(), 2);
        assert!(obs.iter().all(|o| (o.time_ps - 14.3).abs() < 1e-9));
    }

    #[test]
    fn merger_forwards_either_input() {
        let mut net = PulseNetlist::new();
        let m = net.add_element(CellKind::Merger);
        let a = net.add_input(m, 0);
        let b = net.add_input(m, 1);
        net.probe(m, 0, "out");
        net.inject(a, 0.0);
        net.inject(b, 50.0);
        let obs = net.run();
        assert_eq!(obs.len(), 2);
        assert!((obs[0].time_ps - 8.2).abs() < 1e-9);
        assert!((obs[1].time_ps - 58.2).abs() < 1e-9);
    }

    #[test]
    fn dro_without_data_stays_silent() {
        let mut net = PulseNetlist::new();
        let dro = net.add_element(CellKind::Dro);
        let clock = net.add_input(dro, 1);
        net.probe(dro, 0, "q");
        net.inject(clock, 5.0);
        assert!(net.run().is_empty());
    }

    #[test]
    fn dro_readout_is_destructive() {
        let mut net = PulseNetlist::new();
        let dro = net.add_element(CellKind::Dro);
        let data = net.add_input(dro, 0);
        let clock = net.add_input(dro, 1);
        net.probe(dro, 0, "q");
        net.inject(data, 0.0);
        net.inject(clock, 10.0);
        net.inject(clock, 20.0);
        let obs = net.run();
        assert_eq!(obs.len(), 1, "second clock must find the cell empty");
    }

    #[test]
    fn ndro_readout_is_nondestructive() {
        let mut net = PulseNetlist::new();
        let ndro = net.add_element(CellKind::Ndro);
        let set = net.add_input(ndro, 0);
        let reset = net.add_input(ndro, 1);
        let read = net.add_input(ndro, 2);
        net.probe(ndro, 0, "q");
        net.inject(set, 0.0);
        net.inject(read, 10.0);
        net.inject(read, 20.0);
        net.inject(reset, 30.0);
        net.inject(read, 40.0);
        let obs = net.run();
        assert_eq!(obs.len(), 2, "two reads before reset, none after");
    }

    #[test]
    fn resettable_dro_reset_discards_state() {
        let mut net = PulseNetlist::new();
        let rd = net.add_element(CellKind::ResettableDro);
        let data = net.add_input(rd, 0);
        let clock = net.add_input(rd, 1);
        let reset = net.add_input(rd, 2);
        net.probe(rd, 0, "q");
        net.inject(data, 0.0);
        net.inject(reset, 5.0);
        net.inject(clock, 10.0);
        assert!(net.run().is_empty());
    }

    #[test]
    fn dual_output_dro_is_complementary() {
        let mut net = PulseNetlist::new();
        let d2 = net.add_element(CellKind::DualOutputDro);
        let data = net.add_input(d2, 0);
        let clock = net.add_input(d2, 1);
        net.probe(d2, 0, "true");
        net.probe(d2, 1, "false");
        net.inject(data, 0.0);
        net.inject(clock, 10.0); // stored -> "true"
        net.inject(clock, 20.0); // empty  -> "false"
        let obs = net.run();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].probe, "true");
        assert_eq!(obs[1].probe, "false");
    }

    #[test]
    fn switch_routes_by_selected_state() {
        let mut net = PulseNetlist::new();
        let sw = net.add_element(CellKind::Switch12);
        let data = net.add_input(sw, 0);
        let sel1 = net.add_input(sw, 2);
        net.probe(sw, 0, "out0");
        net.probe(sw, 1, "out1");
        net.inject(data, 0.0); // default route: out0
        net.inject(sel1, 5.0);
        net.inject(data, 10.0); // now routed to out1
        let obs = net.run();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[0].probe, "out0");
        assert_eq!(obs[1].probe, "out1");
    }

    #[test]
    fn seven_stage_reg_shifts_a_bit_through() {
        // The paper's Reg is a 7-deep DRO queue: a stored 1 must appear at
        // the output after exactly 7 clock shifts, and never before.
        let (mut net, data, clock) = dro_shift_register(7);
        net.inject(data, 0.0);
        for i in 0..7 {
            net.inject(clock, 100.0 * (i + 1) as f64);
        }
        let obs = net.run();
        assert_eq!(obs.len(), 1, "exactly one pulse must emerge: {obs:?}");
        assert!(
            obs[0].time_ps > 700.0,
            "bit emerged after shift 7, at {} ps",
            obs[0].time_ps
        );
    }

    #[test]
    fn shift_register_preserves_bit_patterns() {
        // Shift the pattern 1,0,1 through a 3-stage register; two pulses
        // must emerge in order, one clock apart.
        let (mut net, data, clock) = dro_shift_register(3);
        // Present each data bit just before its shift clock.
        net.inject(data, 0.0); // bit 1
        net.inject(clock, 100.0);
        net.inject(clock, 200.0); // bit 0 (no data pulse)
        net.inject(data, 250.0); // bit 1
        net.inject(clock, 300.0);
        // Drain with three more clocks.
        net.inject(clock, 400.0);
        net.inject(clock, 500.0);
        net.inject(clock, 600.0);
        let obs = net.run();
        assert_eq!(obs.len(), 2, "{obs:?}");
        assert!(obs[1].time_ps - obs[0].time_ps > 150.0);
    }

    #[test]
    fn single_stage_register_works() {
        let (mut net, data, clock) = dro_shift_register(1);
        net.inject(data, 0.0);
        net.inject(clock, 10.0);
        assert_eq!(net.run().len(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stage_register_rejected() {
        dro_shift_register(0);
    }
}
