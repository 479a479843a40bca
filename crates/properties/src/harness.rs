//! Shared plumbing for the property suites: the generated core, its compiled
//! model and the symbolic present-state helpers.

use std::sync::Arc;

use ssr_bdd::{BddManager, BddVec, OrderPolicy};
use ssr_cpu::{build_core, CoreConfig};
use ssr_netlist::{Netlist, NetlistError};
use ssr_sim::CompiledModel;
use ssr_ste::{Assertion, CheckReport, Formula, Ste, SteError};

/// A relation-partitioning mode from before the single streaming checker.
///
/// Parse-only: old reports, journals and `ssr-serve/v1` specs may still
/// carry a `partitioning` value, which [`Partitioning::parse`] accepts
/// (rejecting unknown ones), but no checker reads it and nothing emits it.
/// Kept, with its `Default`, for source compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partitioning {
    /// The legacy `monolithic` value.
    Monolithic,
    /// The legacy `conjunctive` value.
    Conjunctive,
    /// The legacy `auto` value, the former default.
    #[default]
    Auto,
}

impl Partitioning {
    /// Parses a legacy `partitioning` value; `None` for unknown text.
    pub fn parse(text: &str) -> Option<Partitioning> {
        match text {
            "monolithic" => Some(Partitioning::Monolithic),
            "conjunctive" => Some(Partitioning::Conjunctive),
            "auto" => Some(Partitioning::Auto),
            _ => None,
        }
    }
}

/// A generated core together with everything needed to check STE assertions
/// against it.
///
/// The netlist is generated and the model compiled (validated + topo-sorted)
/// exactly once, at construction; both are immutable afterwards, so a
/// harness wrapped in an [`Arc`] can be shared across campaign jobs and
/// worker threads without recompiling anything per assertion.
///
/// The harness also carries the static variable-[`OrderPolicy`] the
/// property suites declare their symbolic words under — part of a campaign
/// job's identity, so two harnesses for the same core at different orders
/// are different compilations.
#[derive(Debug)]
pub struct CoreHarness {
    config: CoreConfig,
    order: OrderPolicy,
    netlist: Arc<Netlist>,
    model: CompiledModel,
}

impl CoreHarness {
    /// Generates the core for `config` and compiles its model, using the
    /// default interleaved variable order.
    ///
    /// # Errors
    /// Returns a [`NetlistError`] if generation fails (a generator bug).
    pub fn new(config: CoreConfig) -> Result<Self, NetlistError> {
        Self::with_order(config, OrderPolicy::Interleaved)
    }

    /// Generates the core for `config`, compiling the property suites'
    /// symbolic words under the given variable-order preset.
    ///
    /// # Errors
    /// Returns a [`NetlistError`] if generation fails (a generator bug).
    pub fn with_order(config: CoreConfig, order: OrderPolicy) -> Result<Self, NetlistError> {
        let netlist = Arc::new(build_core(&config)?);
        let model =
            CompiledModel::from_arc(Arc::clone(&netlist)).expect("generated cores always compile");
        Ok(CoreHarness {
            config,
            order,
            netlist,
            model,
        })
    }

    /// The configuration the core was generated from.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// The variable-order preset the property suites compile under.
    pub fn order(&self) -> &OrderPolicy {
        &self.order
    }

    /// The generated netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The shared handle to the generated netlist.
    pub fn netlist_arc(&self) -> &Arc<Netlist> {
        &self.netlist
    }

    /// The compiled model (built once at construction).
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Checks one assertion against the pre-compiled model.
    ///
    /// # Errors
    /// Propagates elaboration errors from the STE engine.
    pub fn check(
        &self,
        m: &mut BddManager,
        assertion: &Assertion,
    ) -> Result<CheckReport, SteError> {
        Ste::new(&self.model).check(m, assertion)
    }

    /// Checks a whole suite of assertions against the pre-compiled model.
    ///
    /// # Errors
    /// Propagates elaboration errors from the STE engine.
    pub fn check_all(
        &self,
        m: &mut BddManager,
        assertions: &[Assertion],
    ) -> Result<Vec<CheckReport>, SteError> {
        Ste::new(&self.model).check_all(m, assertions)
    }

    /// [`CoreHarness::check_all`], ignoring the legacy [`Partitioning`]
    /// argument.  Kept for source compatibility.
    ///
    /// # Errors
    /// Propagates elaboration errors from the STE engine.
    pub fn check_all_with(
        &self,
        m: &mut BddManager,
        assertions: &[Assertion],
        _: Partitioning,
    ) -> Result<Vec<CheckReport>, SteError> {
        self.check_all(m, assertions)
    }

    // ------------------------------------------------------------------
    // Present-state builders
    // ------------------------------------------------------------------

    /// Asserts the word `prefix[0..width)` equals `value` over `[from, to)`.
    pub fn word_over(
        m: &mut BddManager,
        prefix: &str,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        Formula::word_is(m, prefix, value).from_to(from, to)
    }

    /// Asserts the full PC register equals `pc` over `[from, to)`.
    pub fn pc_is(m: &mut BddManager, pc: &BddVec, from: usize, to: usize) -> Formula {
        Self::word_over(m, "PC", pc, from, to)
    }

    /// Asserts that register `index` of the bank holds `value` over
    /// `[from, to)`.
    pub fn register_is(
        m: &mut BddManager,
        index: usize,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        Self::word_over(m, &format!("Registers_w{index}"), value, from, to)
    }

    /// Asserts that instruction-memory word `index` holds `value` over
    /// `[from, to)`.
    pub fn imem_word_is(
        m: &mut BddManager,
        index: usize,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        Self::word_over(m, &format!("IMem_w{index}"), value, from, to)
    }

    /// Asserts the instruction-memory word addressed by the word address
    /// `addr` (a [`BddVec`] as wide as the memory's address) holds `value`,
    /// using the symbolic-indexing style: only the addressed word is
    /// constrained.
    pub fn imem_indexed_is(
        &self,
        m: &mut BddManager,
        addr: &BddVec,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        ssr_ste::indexing::indexed_memory_antecedent(
            m,
            "IMem",
            self.config.imem_depth,
            addr,
            value,
            from,
            to,
        )
    }

    /// Asserts the data-memory word addressed by `addr` holds `value`
    /// (symbolic indexing).
    pub fn dmem_indexed_is(
        &self,
        m: &mut BddManager,
        addr: &BddVec,
        value: &BddVec,
        from: usize,
        to: usize,
    ) -> Formula {
        ssr_ste::indexing::indexed_memory_antecedent(
            m,
            "DMem",
            self.config.dmem_depth,
            addr,
            value,
            from,
            to,
        )
    }

    /// The word address (instruction index) corresponding to a byte-address
    /// PC vector: bits `[2, 2 + imem_addr_bits)`.
    pub fn pc_word_address(&self, pc: &BddVec) -> BddVec {
        pc.slice(2, 2 + self.config.imem_addr_bits())
    }

    /// The data-memory word address corresponding to a byte address.
    pub fn dmem_word_address(&self, byte_addr: &BddVec) -> BddVec {
        byte_addr.slice(2, 2 + self.config.dmem_addr_bits())
    }

    /// Asserts the quiescent operating conditions the paper's Property I
    /// uses: `NRET` and `NRST` held high and the instruction-memory load
    /// port idle, over `[0, to)`.
    pub fn nominal_controls(to: usize) -> Formula {
        Formula::node_is_from_to("NRET", true, 0, to)
            .and(Formula::node_is_from_to("NRST", true, 0, to))
            .and(Formula::node_is_from_to("IMemWrite", false, 0, to))
            .and(Formula::node_is_from_to("IMemRead", true, 0, to))
    }

    /// Asserts the instruction-memory port controls during a sleep/resume
    /// schedule: load port idle, read port enabled, for `depth` time units.
    pub fn imem_port_idle(depth: usize) -> Formula {
        Formula::node_is_from_to("IMemWrite", false, 0, depth)
            .and(Formula::node_is_from_to("IMemRead", true, 0, depth))
    }

    /// The name of the control-unit opcode input word for this
    /// configuration (`IFR_Instr` when an IFR is present, `Opcode`
    /// otherwise).
    pub fn opcode_net(&self) -> &'static str {
        match self.config.control_path {
            ssr_cpu::ControlPath::Combinational => "Opcode",
            _ => "IFR_Instr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_partitioning_values_parse() {
        for (text, mode) in [
            ("monolithic", Partitioning::Monolithic),
            ("conjunctive", Partitioning::Conjunctive),
            ("auto", Partitioning::Auto),
        ] {
            assert_eq!(Partitioning::parse(text), Some(mode));
        }
        assert_eq!(Partitioning::parse("bogus"), None);
        assert_eq!(Partitioning::default(), Partitioning::Auto);
    }
}
