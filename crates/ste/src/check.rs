//! The STE assertion checker (Definition 3 and the verification condition).

use std::time::{Duration, Instant};

use ssr_bdd::{Assignment, Bdd, BddManager, MaintainSettings};
use ssr_netlist::NetId;
use ssr_sim::{CompiledModel, SymSimulator, SymState};
use ssr_ternary::{SymTernary, Ternary};

use crate::error::SteError;
use crate::formula::{Assertion, Formula};

/// One violated consequent constraint in a counterexample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedNode {
    /// Time unit of the violated constraint.
    pub time: usize,
    /// Node name.
    pub node: String,
    /// Value the consequent required (under the counterexample assignment).
    pub expected: Ternary,
    /// Value the defining trajectory actually carries.
    pub actual: Ternary,
}

/// A concrete counterexample: an assignment of the symbolic variables plus
/// the list of violated constraints it exposes.
///
/// As the paper notes, a single symbolic counterexample captures *all*
/// failing scalar traces; this type reports one satisfying assignment of the
/// failure condition (and the full failure condition is available as
/// `!CheckReport::ok`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// The satisfying assignment of the failure condition.
    pub assignment: Assignment,
    /// The constraints that fail under this assignment.
    pub failures: Vec<FailedNode>,
}

/// The result of checking one assertion.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// The assertion's name, if it had one.
    pub name: Option<String>,
    /// `true` iff the assertion holds for every assignment of the symbolic
    /// variables.
    pub holds: bool,
    /// BDD over the symbolic variables where the consequent is satisfied.
    /// The assertion holds iff this is the constant true function.
    pub ok: Bdd,
    /// BDD where some antecedent-driven node became `⊤` (overconstrained).
    /// A non-false value means the antecedent conflicts with the circuit (or
    /// itself) for those assignments and the check is vacuous there.
    pub antecedent_conflict: Bdd,
    /// One concrete counterexample if the assertion fails.
    pub counterexample: Option<Counterexample>,
    /// Number of time units simulated.
    pub depth: usize,
    /// Number of point-wise `⊑` checks performed.
    pub constraints_checked: usize,
    /// Wall-clock time of the check (simulation + comparison).
    pub duration: Duration,
}

impl CheckReport {
    /// Convenience: `true` when the assertion failed but only because the
    /// antecedent was contradictory everywhere (a vacuous pass would be
    /// reported as `holds == true`, so this flags suspicious successes).
    pub fn is_vacuous(&self) -> bool {
        self.holds && self.antecedent_conflict.is_true()
    }
}

/// The STE model checker bound to a compiled circuit model.
#[derive(Debug, Clone)]
pub struct Ste<'m> {
    model: &'m CompiledModel,
}

impl<'m> Ste<'m> {
    /// Creates a checker for the given model.
    pub fn new(model: &'m CompiledModel) -> Self {
        Ste { model }
    }

    /// The model being checked.
    pub fn model(&self) -> &'m CompiledModel {
        self.model
    }

    /// Computes the defining trajectory of `antecedent` for `depth` time
    /// units: the weakest run of the circuit consistent with the antecedent.
    ///
    /// # Errors
    /// Returns [`SteError::UnknownNode`] if the formula mentions an unknown
    /// node.
    pub fn defining_trajectory(
        &self,
        m: &mut BddManager,
        antecedent: &Formula,
        depth: usize,
    ) -> Result<Vec<SymState>, SteError> {
        let seq = antecedent.defining_sequence(m, self.model.netlist(), depth)?;
        let sim = SymSimulator::new(self.model);
        // This entry point does not root the caller's handles, so the
        // simulator must not garbage-collect under it: suspend any
        // maintenance policy for the duration.
        let saved = m.maintenance();
        m.set_maintenance(None);
        let trajectory = sim.run(m, &seq);
        m.set_maintenance(saved);
        Ok(trajectory)
    }

    /// Checks the assertion `A ⇒ C` against the model.
    ///
    /// The checker streams the defining trajectory one state at a time and
    /// folds the antecedent-conflict and verdict BDDs as it goes.  Only the
    /// assertion's guards, the antecedent/consequent constraints, the
    /// newest state, the two folds and the trajectory values that violate
    /// a constraint are rooted, so a maintenance policy installed on the
    /// manager ([`BddManager::set_maintenance`]) may garbage-collect (and
    /// resift) the older states between steps.  Without a policy nothing
    /// is collected.  The verdict is the same either way; only node counts
    /// and peak memory differ.  After a check under a policy the raw BDDs
    /// in the returned [`CheckReport`] (`ok`, `antecedent_conflict`) are
    /// only guaranteed valid until the next collection.
    ///
    /// # Errors
    /// Returns [`SteError::UnknownNode`] if either formula mentions a node
    /// that does not exist in the model.
    pub fn check(
        &self,
        m: &mut BddManager,
        assertion: &Assertion,
    ) -> Result<CheckReport, SteError> {
        let start = Instant::now();
        let netlist = self.model.netlist();
        let depth = assertion.depth();
        let state_bits = self.model.state_bits();

        // A job whose deadline already lapsed (e.g. on a later assertion
        // of a long suite) gives up before elaborating anything new.
        m.check_deadline();
        let a_seq = assertion.antecedent.defining_sequence(m, netlist, depth)?;
        let c_seq = assertion.consequent.defining_sequence(m, netlist, depth)?;

        m.push_root_frame();
        // The assertion's own guard BDDs are rooted too, so the caller can
        // re-check the same assertion after a collection.
        let mut guards = Vec::new();
        assertion.collect_bdds(&mut guards);
        for guard in guards {
            m.root(guard);
        }
        for seq in [&a_seq, &c_seq] {
            for constraints in seq {
                for &(_, value) in constraints {
                    m.root(value.hi());
                    m.root(value.lo());
                }
            }
        }

        let sim = SymSimulator::new(self.model);
        let mut conflict = Bdd::FALSE;
        let mut ok = Bdd::TRUE;
        let mut constraints_checked = 0usize;
        // The trajectory is gone by verdict time, so each violation keeps
        // the actual value it was compared against.
        let mut violated: Vec<(usize, NetId, SymTernary, SymTernary)> = Vec::new();
        let mut prev: Option<SymState> = None;
        for (t, drive) in a_seq.iter().enumerate() {
            // Per-step deadline probe: tighter than the kernel's periodic
            // in-recursion check, and at a point where the root frame
            // makes unwinding safe.
            m.check_deadline();
            let state = match &prev {
                None => sim.initial_state(m, drive),
                Some(p) => sim.step(m, p, drive),
            };
            // The predecessor's frame stays open through the step, which
            // may collect between gates; nothing collects between closing
            // it and rooting the new state.
            if prev.is_some() {
                m.pop_root_frame();
            }
            m.push_root_frame();
            root_state(m, &state, state_bits);
            // Antecedent consistency: a ⊤ on any antecedent-driven node
            // means the stimulus contradicts the circuit (or itself) for
            // those assignments.
            for &(net, _) in drive {
                let top_here = state.node(net).is_top(m);
                let next = m.or(conflict, top_here);
                swap_root(m, &mut conflict, next);
            }
            // The verification condition: ∀ t, n. [C] t n ⊑ [[A]] t n.
            for &(net, required) in &c_seq[t] {
                let actual = state.node(net);
                let cond = required.leq(m, &actual);
                constraints_checked += 1;
                if !cond.is_true() {
                    m.protect(actual.hi());
                    m.protect(actual.lo());
                    violated.push((t, net, required, actual));
                    let next = m.and(ok, cond);
                    swap_root(m, &mut ok, next);
                }
            }
            m.maintain();
            prev = Some(state);
        }
        if prev.is_some() {
            m.pop_root_frame();
        }

        let holds = ok.is_true();
        let counterexample = if holds {
            None
        } else {
            let not_ok = m.not(ok);
            m.one_sat(not_ok).map(|assignment| {
                let mut failures = Vec::new();
                for &(t, net, required, actual) in &violated {
                    let expected = required.eval(m, &assignment).unwrap_or(Ternary::X);
                    let actual = actual.eval(m, &assignment).unwrap_or(Ternary::X);
                    if !expected.leq(actual) {
                        failures.push(FailedNode {
                            time: t,
                            node: netlist.net(net).name.clone(),
                            expected,
                            actual,
                        });
                    }
                }
                Counterexample {
                    assignment,
                    failures,
                }
            })
        };

        for &(_, _, _, actual) in &violated {
            m.release(actual.hi());
            m.release(actual.lo());
        }
        m.release(ok);
        m.release(conflict);
        m.pop_root_frame();

        Ok(CheckReport {
            name: assertion.name.clone(),
            holds,
            ok,
            antecedent_conflict: conflict,
            counterexample,
            depth,
            constraints_checked,
            duration: start.elapsed(),
        })
    }

    /// Checks a whole suite of assertions, returning one report per
    /// assertion in order.
    ///
    /// The guard BDDs of *every* assertion are rooted for the duration of
    /// the run, so a collection triggered inside one check cannot reclaim
    /// the formulas of the checks still to come.  Unlike [`Ste::check`],
    /// a suite run always collects: when the caller installed no
    /// maintenance policy, each assertion runs under a GC-only policy
    /// (sifting stays opt-in, since it changes the variable order), and
    /// the caller's `None` is restored after each one.  The streamed
    /// trajectory only saves memory if dead states are actually collected.
    ///
    /// # Errors
    /// Fails fast on the first elaboration error.
    pub fn check_all(
        &self,
        m: &mut BddManager,
        assertions: &[Assertion],
    ) -> Result<Vec<CheckReport>, SteError> {
        let mut guards = Vec::new();
        for assertion in assertions {
            assertion.collect_bdds(&mut guards);
        }
        m.push_root_frame();
        for guard in guards {
            m.root(guard);
        }
        let forced = !m.maintenance_enabled();
        let reports = assertions
            .iter()
            .map(|assertion| {
                // Installed per assertion, so each one starts a fresh GC
                // schedule.
                if forced {
                    m.set_maintenance(Some(MaintainSettings {
                        sift: false,
                        ..MaintainSettings::default()
                    }));
                }
                let report = self.check(m, assertion);
                if forced {
                    m.set_maintenance(None);
                }
                report
            })
            .collect();
        m.pop_root_frame();
        reports
    }
}

/// Replaces the protected fold `acc` with `next`, protecting the new value
/// before releasing the old one.
fn swap_root(m: &mut BddManager, acc: &mut Bdd, next: Bdd) {
    m.protect(next);
    m.release(*acc);
    *acc = next;
}

/// Roots a trajectory state's node and shadow-clock rails in the innermost
/// root frame.
fn root_state(m: &mut BddManager, state: &SymState, state_bits: usize) {
    for value in state.nodes() {
        m.root(value.hi());
        m.root(value.lo());
    }
    for index in 0..state_bits {
        let shadow = state.shadow_clk(index);
        m.root(shadow.hi());
        m.root(shadow.lo());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_bdd::BddVec;
    use ssr_netlist::builder::NetlistBuilder;
    use ssr_netlist::{Netlist, RegKind};
    use ssr_sim::ConcreteSimulator;

    fn and_gate() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        let a = b.input("a");
        let c = b.input("b");
        let x = b.and("out", a, c);
        b.mark_output(x);
        b.finish().expect("valid")
    }

    fn dff() -> Netlist {
        let mut b = NetlistBuilder::new("dff");
        let clk = b.input("clock");
        let d = b.input("d");
        let q = b.reg("q", RegKind::Simple, d, clk, None, None);
        b.mark_output(q);
        b.finish().expect("valid")
    }

    fn adder4() -> Netlist {
        // sum = a + b (mod 16).
        let mut b = NetlistBuilder::new("adder");
        let a_in = b.word_input("a", 4);
        let b_in = b.word_input("b", 4);
        let (sum, _carry) = b.word_add(&a_in, &b_in, None).expect("widths");
        let named: Vec<_> = sum
            .iter()
            .enumerate()
            .map(|(i, &s)| b.buf(format!("sum[{i}]"), s))
            .collect();
        b.mark_word_output(&named);
        b.finish().expect("valid")
    }

    /// The dff capture property: drive `d = v` across a rising edge and
    /// claim `q = v` at `claim_at`.  The model's documented timing makes
    /// the value visible two steps later, so `claim_at == 1` is too early.
    fn dff_claim(m: &mut BddManager, v: Bdd, claim_at: usize) -> Assertion {
        let clock = Formula::is0("clock")
            .and(Formula::is1("clock").delay(1))
            .and(Formula::is0("clock").delay(2));
        let data = Formula::is_bdd(m, "d", v).from_to(0, 2);
        let claim = Formula::is_bdd(m, "q", v).delay(claim_at);
        Assertion::named("dff_capture", clock.and(data), claim)
    }

    /// Evaluates every constraint of a defining sequence under a total
    /// assignment.
    fn instantiate(
        m: &BddManager,
        seq: &[Vec<(NetId, SymTernary)>],
        assignment: &Assignment,
    ) -> Vec<Vec<(NetId, Ternary)>> {
        seq.iter()
            .map(|step| {
                step.iter()
                    .map(|&(net, value)| (net, value.eval(m, assignment).expect("total")))
                    .collect()
            })
            .collect()
    }

    /// Compares `report` with exhaustive concrete simulation, an oracle
    /// that shares no code with the BDD checker.  For every assignment of
    /// the manager's (at most 8) variables, the antecedent and consequent
    /// sequences are instantiated and the antecedent is run through
    /// [`ConcreteSimulator`]; `ok` must hold there exactly when every
    /// consequent constraint is below the concrete state.  A reported
    /// failure must reproduce under the counterexample's assignment, its
    /// unassigned variables taken as 0.
    fn assert_matches_concrete(
        model: &CompiledModel,
        m: &mut BddManager,
        assertion: &Assertion,
        report: &CheckReport,
    ) {
        let vars = m.var_count() as u32;
        assert!(vars <= 8, "exhaustive reference is for small assertions");
        let netlist = model.netlist();
        let depth = assertion.depth();
        let a_seq = assertion
            .antecedent
            .defining_sequence(m, netlist, depth)
            .expect("elaborates");
        let c_seq = assertion
            .consequent
            .defining_sequence(m, netlist, depth)
            .expect("elaborates");
        let sim = ConcreteSimulator::new(model);
        let total = |pick: &dyn Fn(u32) -> bool| {
            let mut assignment = Assignment::new();
            for var in 0..vars {
                assignment.set(var, pick(var));
            }
            assignment
        };

        for bits in 0u32..1 << vars {
            let assignment = total(&|var| bits >> var & 1 == 1);
            let trace = sim.run(&instantiate(m, &a_seq, &assignment));
            let holds_here =
                instantiate(m, &c_seq, &assignment)
                    .iter()
                    .enumerate()
                    .all(|(t, step)| {
                        step.iter()
                            .all(|&(net, required)| required.leq(trace[t].node(net)))
                    });
            assert_eq!(
                m.eval(report.ok, &assignment),
                Some(holds_here),
                "assignment {bits:#b}"
            );
        }
        assert_eq!(report.holds, report.ok.is_true());
        assert_eq!(report.counterexample.is_some(), !report.holds);

        if let Some(cex) = &report.counterexample {
            let assignment = total(&|var| cex.assignment.get(var).unwrap_or(false));
            assert_eq!(m.eval(report.ok, &assignment), Some(false));
            let trace = sim.run(&instantiate(m, &a_seq, &assignment));
            let consequent = instantiate(m, &c_seq, &assignment);
            for failure in &cex.failures {
                let net = netlist.find_net(&failure.node).expect("a model node");
                let actual = trace[failure.time].node(net);
                assert_eq!(failure.actual, actual, "{failure:?}");
                assert!(
                    consequent[failure.time].contains(&(net, failure.expected)),
                    "{failure:?}"
                );
                assert!(!failure.expected.leq(actual), "{failure:?}");
            }
        }
    }

    /// Runs `assertion` through both [`Ste::check`] and [`Ste::check_all`],
    /// compares each report with the concrete reference, and returns the
    /// [`Ste::check`] report.
    fn check_against_concrete(
        model: &CompiledModel,
        m: &mut BddManager,
        assertion: &Assertion,
    ) -> CheckReport {
        let ste = Ste::new(model);
        let single = ste.check(m, assertion).expect("checks");
        assert_matches_concrete(model, m, assertion, &single);
        let suite = ste
            .check_all(m, std::slice::from_ref(assertion))
            .expect("checks");
        assert_eq!(suite.len(), 1);
        assert_matches_concrete(model, m, assertion, &suite[0]);
        assert_eq!(suite[0].ok, single.ok);
        assert_eq!(suite[0].counterexample, single.counterexample);

        // The verdict must not depend on the caller's policy: check again
        // collecting as often as the kernel allows, first without and
        // then with sifting.  With a zero threshold a sifting policy
        // allows only `live / 8` garbage between passes (none below eight
        // live nodes); a `usize::MAX` sift threshold keeps that allowance
        // but never sifts.  The unsifted run comes first because a sift
        // can move a variable on top and make a trajectory value a
        // cofactor of a rooted constraint, which would keep a value the
        // checker failed to root alive.
        for sift_threshold in [usize::MAX, 1] {
            let saved = m.maintenance();
            let passes = m.stats().gc_passes;
            m.set_maintenance(Some(MaintainSettings {
                gc_threshold: 0,
                sift: true,
                sift_threshold,
                ..MaintainSettings::default()
            }));
            let maintained = ste.check(m, assertion).expect("checks");
            m.set_maintenance(saved);
            assert!(m.stats().gc_passes > passes, "the policy collected");
            assert_matches_concrete(model, m, assertion, &maintained);
        }
        single
    }

    #[test]
    fn combinational_assertion_holds() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let va = m.new_var("va");
        let vb = m.new_var("vb");
        let a = Formula::is_bdd(&mut m, "a", va).and(Formula::is_bdd(&mut m, "b", vb));
        let expected = m.and(va, vb);
        let c = Formula::is_bdd(&mut m, "out", expected);
        let report = check_against_concrete(&model, &mut m, &Assertion::named("and_ok", a, c));
        assert!(report.holds);
        assert!(report.counterexample.is_none());
        assert!(report.antecedent_conflict.is_false());
        assert_eq!(report.depth, 1);
        assert_eq!(report.name.as_deref(), Some("and_ok"));
    }

    #[test]
    fn wrong_spec_produces_counterexample() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let va = m.new_var("va");
        let vb = m.new_var("vb");
        let a = Formula::is_bdd(&mut m, "a", va).and(Formula::is_bdd(&mut m, "b", vb));
        // Wrong: claim the output is the OR of the inputs.
        let wrong = m.or(va, vb);
        let c = Formula::is_bdd(&mut m, "out", wrong);
        let report = check_against_concrete(&model, &mut m, &Assertion::new(a, c));
        assert!(!report.holds);
        let cex = report.counterexample.expect("has counterexample");
        assert!(!cex.failures.is_empty());
        assert_eq!(cex.failures[0].node, "out");
        // The reported assignment indeed violates AND vs OR (exactly one
        // input true).
        let va_val = cex.assignment.get(0).unwrap_or(false);
        let vb_val = cex.assignment.get(1).unwrap_or(false);
        assert_ne!(va_val && vb_val, va_val || vb_val);
    }

    #[test]
    fn partial_information_yields_x_failure() {
        // Asking for a defined output value without driving the inputs
        // cannot hold: the trajectory carries X.
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let a = Formula::is1("a"); // b is left unconstrained
        let c = Formula::is1("out");
        let report = check_against_concrete(&model, &mut m, &Assertion::new(a, c));
        assert!(!report.holds);
        let cex = report.counterexample.expect("has counterexample");
        assert_eq!(cex.failures[0].actual, Ternary::X);
        assert_eq!(cex.failures[0].expected, Ternary::One);
    }

    #[test]
    fn controlling_zero_needs_no_second_input() {
        // a = 0 forces out = 0 even though b is X — the ternary abstraction
        // at work.
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let a = Formula::is0("a");
        let c = Formula::is0("out");
        let report = ste.check(&mut m, &Assertion::new(a, c)).expect("checks");
        assert!(report.holds);
    }

    #[test]
    fn sequential_assertion_with_clocking() {
        // Drive a value through the flop across a rising edge and check the
        // output two steps later (the model's documented timing).  The
        // streamed trajectory releases each predecessor state.
        let n = dff();
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let v = m.new_var("v");
        let capture = dff_claim(&mut m, v, 2);
        let report = check_against_concrete(&model, &mut m, &capture);
        assert!(report.holds, "flop captures the symbolic value");
        assert_eq!(report.depth, 3);

        // Negative control: claiming the value appears one step too early
        // must fail.
        let early = dff_claim(&mut m, v, 1);
        let report = check_against_concrete(&model, &mut m, &early);
        assert!(!report.holds);
    }

    #[test]
    fn registered_logic_survives_collection_between_steps() {
        // q = reg(a xor b), out = q and c: a value the circuit computes,
        // not one the antecedent drives, crosses the clock edge, and only
        // the trajectory states hold it.  Driving c with va keeps the
        // claim, va and not vb, free of va xor vb under either order, so
        // no rooted constraint shares the register's value: a checker
        // that fails to root its newest state loses it at the step's
        // collection, and debug builds panic when the next step reads it.
        let mut b = NetlistBuilder::new("registered_xor");
        let clk = b.input("clock");
        let a = b.input("a");
        let c = b.input("b");
        let e = b.input("c");
        let x = b.xor("x", a, c);
        let q = b.reg("q", RegKind::Simple, x, clk, None, None);
        let out = b.and("out", q, e);
        b.mark_output(out);
        let n = b.finish().expect("valid");
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let va = m.new_var("va");
        let vb = m.new_var("vb");
        let clock = Formula::is0("clock")
            .and(Formula::is1("clock").delay(1))
            .and(Formula::is0("clock").delay(2));
        let inputs = Formula::is_bdd(&mut m, "a", va)
            .and(Formula::is_bdd(&mut m, "b", vb))
            .from_to(0, 2);
        let gate = Formula::is_bdd(&mut m, "c", va).delay(2);
        let x_ab = m.xor(va, vb);
        let expected = m.and(x_ab, va);
        let claim = Formula::is_bdd(&mut m, "out", expected).delay(2);
        let assertion = Assertion::named("registered_xor", clock.and(inputs).and(gate), claim);
        let report = check_against_concrete(&model, &mut m, &assertion);
        assert!(report.holds);
    }

    #[test]
    fn antecedent_conflict_is_reported() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        // a is required to be both 0 and 1: contradictory antecedent.
        let a = Formula::is0("a").and(Formula::is1("a"));
        let c = Formula::is0("out");
        let report = check_against_concrete(&model, &mut m, &Assertion::new(a, c));
        assert!(report.antecedent_conflict.is_true());
    }

    #[test]
    fn unknown_nodes_are_errors() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let a = Formula::is1("nonexistent");
        let c = Formula::is1("out");
        assert!(matches!(
            ste.check(&mut m, &Assertion::new(a, c)),
            Err(SteError::UnknownNode(_))
        ));
    }

    #[test]
    fn check_all_returns_one_report_per_assertion() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let suite = vec![
            Assertion::named("zero_a", Formula::is0("a"), Formula::is0("out")),
            Assertion::named("zero_b", Formula::is0("b"), Formula::is0("out")),
        ];
        let reports = ste.check_all(&mut m, &suite).expect("checks");
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.holds));
    }

    #[test]
    fn check_collects_only_under_the_callers_policy() {
        let n = dff();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let v = m.new_var("v");
        let capture = dff_claim(&mut m, v, 2);
        assert!(ste.check(&mut m, &capture).expect("checks").holds);
        assert_eq!(m.stats().gc_passes, 0, "no policy, no collection");
        m.set_maintenance(Some(MaintainSettings {
            gc_threshold: 1,
            sift: false,
            ..MaintainSettings::default()
        }));
        assert!(ste.check(&mut m, &capture).expect("checks").holds);
        assert!(m.stats().gc_passes > 0, "the caller's policy collected");
    }

    #[test]
    fn check_all_restores_the_callers_maintenance_policy() {
        let n = and_gate();
        let model = CompiledModel::new(&n).expect("compiles");
        let ste = Ste::new(&model);
        let mut m = BddManager::new();
        let suite = [Assertion::new(Formula::is0("a"), Formula::is0("out"))];
        // No policy installed: the suite run installs a GC-only one per
        // assertion and must uninstall it afterwards.
        assert!(m.maintenance().is_none());
        let reports = ste.check_all(&mut m, &suite).expect("checks");
        assert!(reports[0].holds);
        assert!(m.maintenance().is_none(), "forced policy was uninstalled");

        // A caller's own policy is used as is and left in place.
        let sifting = Some(MaintainSettings::default());
        m.set_maintenance(sifting);
        let reports = ste.check_all(&mut m, &suite).expect("checks");
        assert!(reports[0].holds);
        assert_eq!(m.maintenance(), sifting);
    }

    #[test]
    fn word_level_datapath_check() {
        let n = adder4();
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let (va, vb) = BddVec::new_interleaved_pair(&mut m, "va", "vb", 4);
        let a_f = Formula::word_is(&mut m, "a", &va);
        let b_f = Formula::word_is(&mut m, "b", &vb);
        let expected = va.add(&mut m, &vb).expect("widths");
        let c = Formula::word_is(&mut m, "sum", &expected);
        let report =
            check_against_concrete(&model, &mut m, &Assertion::named("adder", a_f.and(b_f), c));
        assert!(report.holds);
        assert_eq!(report.constraints_checked, 8);
    }

    #[test]
    fn wrong_word_level_spec_matches_the_concrete_reference() {
        let n = adder4();
        let model = CompiledModel::new(&n).expect("compiles");
        let mut m = BddManager::new();
        let (va, vb) = BddVec::new_interleaved_pair(&mut m, "va", "vb", 4);
        let a_f = Formula::word_is(&mut m, "a", &va);
        let b_f = Formula::word_is(&mut m, "b", &vb);
        // Deliberately wrong: claim the sum ignores the carry chain.
        let wrong = va.xor(&mut m, &vb).expect("widths");
        let c = Formula::word_is(&mut m, "sum", &wrong);
        let assertion = Assertion::named("adder_wrong", a_f.and(b_f), c);
        let report = check_against_concrete(&model, &mut m, &assertion);
        assert!(!report.holds);
    }
}
