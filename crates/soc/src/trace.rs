//! Pipeline-occupancy tracing and ASCII diagrams (the paper's Figure 1).

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use sbst_cpu::StageView;

use crate::{Soc, StopAt};

/// Per-instruction diagram row: (first cycle seen, label, cycle → stage).
type DiagramRow = (u64, String, BTreeMap<u64, &'static str>);

/// A per-cycle record of one core's pipeline occupancy.
#[derive(Debug, Clone, Default)]
pub struct PipelineTrace {
    views: Vec<(u64, StageView)>,
}

impl PipelineTrace {
    /// Records core `core_idx`'s pipeline (advancing the whole SoC)
    /// until that core halts, a core takes a fatal trap, the watchdog
    /// bites, or `max_cycles` elapse.
    pub fn capture(soc: &mut Soc, core_idx: usize, max_cycles: u64) -> PipelineTrace {
        let start = soc.cycle();
        let mut views = Vec::new();
        let view = |soc: &Soc| (soc.cycle(), soc.core(core_idx).stage_view());
        soc.run_until(start.saturating_add(max_cycles), StopAt::CoreHalted(core_idx), |soc| {
            views.push(view(soc));
            ControlFlow::Continue(())
        });
        // The step that ended the run never reaches the hook.
        if views.last().map_or(start, |v| v.0) < soc.cycle() {
            views.push(view(soc));
        }
        PipelineTrace { views }
    }

    /// Raw per-cycle views.
    pub fn views(&self) -> &[(u64, StageView)] {
        &self.views
    }

    /// Renders an instruction/cycle pipeline diagram like the paper's
    /// Figure 1: one row per instruction (by address), one column per
    /// cycle, cells `IS`/`EX`/`ME`/`WB`.
    ///
    /// Only instructions whose address falls in `[from, to)` are shown.
    pub fn diagram(&self, from: u32, to: u32) -> String {
        use std::fmt::Write as _;
        if self.views.is_empty() {
            return String::new();
        }
        let mut rows: BTreeMap<u32, DiagramRow> = BTreeMap::new();
        let note = |pc: u32,
                        instr: Option<sbst_isa::Instr>,
                        cycle: u64,
                        stage: &'static str,
                        rows: &mut BTreeMap<u32, DiagramRow>| {
            if pc < from || pc >= to {
                return;
            }
            let entry = rows.entry(pc).or_insert_with(|| {
                let label = instr
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| ".word".to_string());
                (cycle, label, BTreeMap::new())
            });
            entry.2.insert(cycle, stage);
        };
        for (cycle, view) in &self.views {
            for slot in view.ex.iter().flatten() {
                note(slot.pc, slot.instr, *cycle, "IS", &mut rows);
            }
            for slot in view.mem.iter().flatten() {
                note(slot.pc, slot.instr, *cycle, "EX", &mut rows);
            }
            for slot in view.wb.iter().flatten() {
                note(slot.pc, slot.instr, *cycle, "ME", &mut rows);
                // WB (commit) happens the following cycle.
                note(slot.pc, slot.instr, *cycle + 1, "WB", &mut rows);
            }
        }
        // Sort rows by first appearance (program order through the pipe).
        let mut ordered: Vec<(u32, DiagramRow)> = rows.into_iter().collect();
        ordered.sort_by_key(|(pc, (first, ..))| (*first, *pc));
        // Clip the column range to the cycles the shown rows occupy.
        let first_cycle = ordered
            .iter()
            .filter_map(|(_, (_, _, s))| s.keys().next().copied())
            .min()
            .unwrap_or(self.views[0].0);
        let last_cycle = ordered
            .iter()
            .filter_map(|(_, (_, _, s))| s.keys().next_back().copied())
            .max()
            .unwrap_or(first_cycle);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<28} | cycles {}..{}",
            "instruction", first_cycle, last_cycle
        );
        for (pc, (_, label, stages)) in &ordered {
            let _ = write!(out, "{pc:#08x} {label:<18} |");
            for cycle in first_cycle..=last_cycle {
                let cell = stages.get(&cycle).copied().unwrap_or("..");
                let _ = write!(out, " {cell}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Cycle at which an instruction (by address) was in EX, if ever.
    pub fn ex_cycle_of(&self, pc: u32) -> Option<u64> {
        for (cycle, view) in &self.views {
            if view.mem.iter().flatten().any(|s| s.pc == pc) {
                return Some(*cycle);
            }
        }
        None
    }
}
