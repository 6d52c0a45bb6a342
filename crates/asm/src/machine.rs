//! Machine definition: state variables, guarded rules and update sets.

use crate::value::Value;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Index of a declared state variable (an ASM *location*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) u32);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A snapshot of all state variables.
///
/// States are plain value vectors and therefore hashable; the explorer's
/// visited-set is exact, not approximate.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AsmState {
    pub(crate) values: Vec<Value>,
}

impl AsmState {
    /// The value of a variable.
    pub fn get(&self, var: VarId) -> &Value {
        &self.values[var.0 as usize]
    }

    /// Boolean accessor.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not a Boolean.
    pub fn bool(&self, var: VarId) -> bool {
        self.get(var).as_bool()
    }

    /// Integer accessor.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not an integer.
    pub fn int(&self, var: VarId) -> i64 {
        self.get(var).as_int()
    }

    /// Symbol accessor.
    ///
    /// # Panics
    ///
    /// Panics if the variable is not a symbol.
    pub fn sym(&self, var: VarId) -> &'static str {
        self.get(var).as_sym()
    }

    /// Sets the value of a variable — for host-driven execution of a
    /// model outside the explorer (cycle-level co-execution).
    pub fn set(&mut self, var: VarId, value: Value) {
        self.values[var.0 as usize] = value;
    }
}

/// An update set: the simultaneous assignments one rule firing performs.
pub(crate) type UpdateSet = Vec<(VarId, Value)>;

/// Error raised when one update set assigns two different values to the
/// same location — the classic ASM consistency condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InconsistentUpdateError {
    /// Name of the rule that produced the conflicting update set.
    pub rule: String,
    /// Name of the location assigned twice.
    pub location: String,
}

impl fmt::Display for InconsistentUpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule {} produced conflicting updates to location {}",
            self.rule, self.location
        )
    }
}

impl Error for InconsistentUpdateError {}

type GuardFn = dyn Fn(&AsmState) -> bool + Send + Sync;
type BodyFn = dyn Fn(&AsmState) -> Vec<UpdateSet> + Send + Sync;

/// A guarded rule: the ASM analogue of an AsmL method with a `require`
/// precondition.
///
/// The body returns one update set per nondeterministic choice (the AsmL
/// `any x in D` construct): exploration branches over all of them.
#[derive(Clone)]
pub struct Rule {
    pub(crate) name: String,
    pub(crate) guard: Arc<GuardFn>,
    pub(crate) body: Arc<BodyFn>,
}

impl Rule {
    /// The rule's name (used as the FSM transition label).
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Debug for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Rule").field("name", &self.name).finish()
    }
}

/// A complete ASM model: declared variables, their initial values, the
/// rules, and named Boolean predicates that PSL properties may reference.
#[derive(Clone)]
pub struct Machine {
    pub(crate) var_names: Vec<String>,
    pub(crate) init: Vec<Value>,
    pub(crate) rules: Vec<Rule>,
    pub(crate) predicates: Vec<(String, Arc<GuardFn>)>,
    pub(crate) var_index: HashMap<String, VarId>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("vars", &self.var_names)
            .field(
                "rules",
                &self.rules.iter().map(Rule::name).collect::<Vec<_>>(),
            )
            .field(
                "predicates",
                &self.predicates.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Machine {
    /// The initial state.
    pub fn initial_state(&self) -> AsmState {
        AsmState {
            values: self.init.clone(),
        }
    }

    /// Declared variable names in declaration order.
    pub fn var_names(&self) -> &[String] {
        &self.var_names
    }

    /// Looks up a variable by name.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.var_index.get(name).copied()
    }

    /// The rules, in declaration order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Renders a state as `name=value` pairs for reports.
    pub fn format_state(&self, state: &AsmState) -> String {
        self.var_names
            .iter()
            .zip(&state.values)
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Fires `rule` in `state` with choice index `choice`, checking update
    /// consistency. Allocating convenience wrapper around
    /// [`Machine::apply_into`], used by the test suite; the explorer
    /// calls `apply_into` directly.
    ///
    /// # Errors
    ///
    /// Returns [`InconsistentUpdateError`] if the update set assigns two
    /// different values to one location.
    #[cfg(test)]
    pub(crate) fn apply(
        &self,
        state: &AsmState,
        rule: &Rule,
        updates: &UpdateSet,
    ) -> Result<AsmState, InconsistentUpdateError> {
        let mut next = AsmState { values: Vec::new() };
        self.apply_into(state, rule, updates, &mut next)?;
        Ok(next)
    }

    /// Fires `rule` in `state`, writing the successor into `next` and
    /// reusing `next`'s buffer. This is the explorer's hot path — a
    /// successor is computed for every `(state, rule, choice)` triple.
    pub(crate) fn apply_into(
        &self,
        state: &AsmState,
        rule: &Rule,
        updates: &UpdateSet,
        next: &mut AsmState,
    ) -> Result<(), InconsistentUpdateError> {
        // Consistency check without a per-call hash map: update sets are
        // small (one entry per written location), so a quadratic scan is
        // cheaper than allocating.
        for (i, (var, value)) in updates.iter().enumerate() {
            for (prev_var, prev_value) in &updates[..i] {
                if prev_var == var && prev_value != value {
                    return Err(InconsistentUpdateError {
                        rule: rule.name.clone(),
                        location: self.var_names[var.0 as usize].clone(),
                    });
                }
            }
        }
        next.values.clone_from(&state.values);
        for (var, value) in updates {
            next.values[var.0 as usize] = value.clone();
        }
        Ok(())
    }

    /// Evaluates a named predicate (or a Boolean variable of the same
    /// name) in `state`; unknown names are `false`.
    pub fn predicate(&self, name: &str, state: &AsmState) -> bool {
        if let Some((_, p)) = self.predicates.iter().find(|(n, _)| n == name) {
            return p(state);
        }
        if let Some(&var) = self.var_index.get(name) {
            if let Value::Bool(b) = state.get(var) {
                return *b;
            }
        }
        false
    }
}

/// Builder for [`Machine`].
///
/// See the crate-level example.
#[derive(Default)]
pub struct MachineBuilder {
    var_names: Vec<String>,
    init: Vec<Value>,
    rules: Vec<Rule>,
    predicates: Vec<(String, Arc<GuardFn>)>,
}

impl MachineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a state variable with its initial value.
    ///
    /// # Panics
    ///
    /// Panics if the name is already declared.
    pub fn var(&mut self, name: impl Into<String>, init: Value) -> VarId {
        let name = name.into();
        assert!(
            !self.var_names.contains(&name),
            "variable {name} declared twice"
        );
        self.var_names.push(name);
        self.init.push(init);
        VarId(self.var_names.len() as u32 - 1)
    }

    /// Declares a rule with a guard (`require` precondition) and a body
    /// producing one update set per nondeterministic choice.
    pub fn rule<G, B>(&mut self, name: impl Into<String>, guard: G, body: B) -> &mut Self
    where
        G: Fn(&AsmState) -> bool + Send + Sync + 'static,
        B: Fn(&AsmState) -> Vec<Vec<(VarId, Value)>> + Send + Sync + 'static,
    {
        self.rules.push(Rule {
            name: name.into(),
            guard: Arc::new(guard),
            body: Arc::new(body),
        });
        self
    }

    /// Declares a named Boolean predicate visible to PSL properties.
    pub fn predicate<P>(&mut self, name: impl Into<String>, pred: P) -> &mut Self
    where
        P: Fn(&AsmState) -> bool + Send + Sync + 'static,
    {
        self.predicates.push((name.into(), Arc::new(pred)));
        self
    }

    /// Finalizes the machine.
    pub fn build(self) -> Machine {
        let var_index = self
            .var_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), VarId(i as u32)))
            .collect();
        Machine {
            var_names: self.var_names,
            init: self.init,
            rules: self.rules,
            predicates: self.predicates,
            var_index,
        }
    }
}
