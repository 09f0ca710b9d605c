//! Static timing analysis of the Unit's module graph.
//!
//! The paper verifies its Unit with JSIM (an analog Josephson-junction
//! SPICE simulator) and reports a 215 ps maximum delay → ≈5 GHz maximum
//! clock (§IV-C). We cannot run analog simulation; instead we do what the
//! timing numbers actually require: longest-path analysis over a directed
//! graph whose node delays are the published module latencies of Table II
//! (themselves rolled up from Table I cells).
//!
//! The critical path of the Unit runs through the register read
//! (base pointer, 147 ps), the spike-direction logic (spike out, 61.1 ps)
//! and the dual-output DRO output stage (6.8 ps): 214.9 ps — the paper's
//! "maximum delay of 215 ps".

use crate::cells::CellKind;

/// A directed acyclic timing graph with per-node delays in picoseconds.
///
/// # Example
///
/// ```
/// use qecool_sfq::timing::TimingGraph;
///
/// let mut g = TimingGraph::new();
/// let a = g.add_node("input", 0.0);
/// let b = g.add_node("logic", 10.0);
/// let c = g.add_node("output", 5.0);
/// g.add_edge(a, b);
/// g.add_edge(b, c);
/// assert_eq!(g.critical_path_ps(), 15.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimingGraph {
    names: Vec<String>,
    delays: Vec<f64>,
    succs: Vec<Vec<usize>>,
    preds: Vec<Vec<usize>>,
}

/// A node handle in a [`TimingGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(usize);

impl TimingGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given propagation delay (ps).
    pub fn add_node(&mut self, name: &str, delay_ps: f64) -> NodeId {
        assert!(delay_ps >= 0.0, "negative delay");
        self.names.push(name.to_owned());
        self.delays.push(delay_ps);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        NodeId(self.names.len() - 1)
    }

    /// Adds a directed edge `from → to`.
    ///
    /// # Panics
    ///
    /// Panics on unknown node handles.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(from.0 < self.names.len() && to.0 < self.names.len());
        self.succs[from.0].push(to.0);
        self.preds[to.0].push(from.0);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Per-node worst-case arrival times (input delay included), or `None`
    /// when the graph has a cycle.
    pub fn arrival_times(&self) -> Option<Vec<f64>> {
        let order = self.topological_order()?;
        let mut arrival = vec![0.0f64; self.len()];
        for &n in &order {
            let input = self.preds[n]
                .iter()
                .map(|&p| arrival[p])
                .fold(0.0f64, f64::max);
            arrival[n] = input + self.delays[n];
        }
        Some(arrival)
    }

    /// Worst-case (critical) path delay in ps.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (timing graphs must be DAGs).
    pub fn critical_path_ps(&self) -> f64 {
        self.arrival_times()
            .expect("timing graph must be acyclic")
            .into_iter()
            .fold(0.0, f64::max)
    }

    /// Names along one critical path, source → sink.
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle.
    pub fn critical_path_nodes(&self) -> Vec<String> {
        let arrival = self.arrival_times().expect("timing graph must be acyclic");
        if arrival.is_empty() {
            return Vec::new();
        }
        let mut n = (0..self.len())
            .max_by(|&a, &b| arrival[a].total_cmp(&arrival[b]))
            .expect("non-empty");
        let mut path = vec![n];
        while let Some(&p) = self.preds[n]
            .iter()
            .max_by(|&&a, &&b| arrival[a].total_cmp(&arrival[b]))
        {
            path.push(p);
            n = p;
        }
        path.reverse();
        path.into_iter().map(|i| self.names[i].clone()).collect()
    }

    fn topological_order(&self) -> Option<Vec<usize>> {
        let mut indeg: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut stack: Vec<usize> = indeg
            .iter()
            .enumerate()
            .filter_map(|(i, &d)| (d == 0).then_some(i))
            .collect();
        let mut order = Vec::with_capacity(self.len());
        while let Some(n) = stack.pop() {
            order.push(n);
            for &s in &self.succs[n] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    stack.push(s);
                }
            }
        }
        (order.len() == self.len()).then_some(order)
    }
}

/// Builds the Unit-level module timing graph of the paper's design.
///
/// Node delays are the published module latencies of Table II; the output
/// stage is a dual-output DRO from Table I. The resulting critical path —
/// base pointer → spike out → D2 — is the paper's 215 ps maximum delay.
pub fn unit_timing_graph() -> TimingGraph {
    let mut g = TimingGraph::new();
    let input = g.add_node("meas/token/spike in", 0.0);
    let prioritization = g.add_node("prioritization", 28.0);
    let state_machine = g.add_node("state machine", 98.7);
    let base_pointer = g.add_node("base pointer + Reg", 147.0);
    let spike_out = g.add_node("spike out", 61.1);
    let syndrome_out = g.add_node("syndrome out", 10.4);
    let output = g.add_node(
        "output stage (D2)",
        CellKind::DualOutputDro.params().latency_ps,
    );
    // Incoming spikes are arbitrated, then drive the state machine.
    g.add_edge(input, prioritization);
    g.add_edge(prioritization, state_machine);
    // Register read for the current base depth.
    g.add_edge(input, base_pointer);
    // Both the register value and the FSM decision feed the spike router.
    g.add_edge(base_pointer, spike_out);
    g.add_edge(state_machine, spike_out);
    // The syndrome path is short: direction register to output.
    g.add_edge(state_machine, syndrome_out);
    g.add_edge(spike_out, output);
    g.add_edge(syndrome_out, output);
    g
}

/// Critical-path delay of the paper's Unit in ps (≈215 ps).
pub fn unit_critical_path_ps() -> f64 {
    unit_timing_graph().critical_path_ps()
}

/// Maximum clock frequency implied by a critical path, in GHz.
pub fn max_clock_ghz(critical_path_ps: f64) -> f64 {
    assert!(critical_path_ps > 0.0, "critical path must be positive");
    1000.0 / critical_path_ps
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_critical_path_matches_paper_215ps() {
        let cp = unit_critical_path_ps();
        assert!(
            (cp - 215.0).abs() / 215.0 < 0.01,
            "critical path {cp} ps vs paper 215 ps"
        );
    }

    #[test]
    fn critical_path_runs_through_base_pointer_and_spike_out() {
        let nodes = unit_timing_graph().critical_path_nodes();
        assert!(
            nodes.iter().any(|n| n.contains("base pointer")),
            "{nodes:?}"
        );
        assert!(nodes.iter().any(|n| n.contains("spike out")), "{nodes:?}");
    }

    #[test]
    fn max_clock_is_about_5ghz() {
        // Paper: "maximum operating frequency of about 5 GHz".
        let f = max_clock_ghz(unit_critical_path_ps());
        assert!(f > 4.0 && f < 5.5, "max clock {f} GHz");
        // And comfortably above the 2 GHz target frequency.
        assert!(f > 2.0);
    }

    #[test]
    fn empty_graph_has_zero_critical_path() {
        assert_eq!(TimingGraph::new().critical_path_ps(), 0.0);
        assert!(TimingGraph::new().is_empty());
        assert!(TimingGraph::new().critical_path_nodes().is_empty());
    }

    #[test]
    fn diamond_takes_longest_branch() {
        let mut g = TimingGraph::new();
        let s = g.add_node("s", 1.0);
        let fast = g.add_node("fast", 2.0);
        let slow = g.add_node("slow", 50.0);
        let t = g.add_node("t", 1.0);
        g.add_edge(s, fast);
        g.add_edge(s, slow);
        g.add_edge(fast, t);
        g.add_edge(slow, t);
        assert_eq!(g.critical_path_ps(), 52.0);
        assert_eq!(g.critical_path_nodes(), vec!["s", "slow", "t"]);
    }

    #[test]
    #[should_panic(expected = "acyclic")]
    fn cycle_detection_panics() {
        let mut g = TimingGraph::new();
        let a = g.add_node("a", 1.0);
        let b = g.add_node("b", 1.0);
        g.add_edge(a, b);
        g.add_edge(b, a);
        g.critical_path_ps();
    }
}
