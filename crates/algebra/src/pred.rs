//! Predicates over variable bindings and the value-comparison semantics.
//!
//! Selection and join conditions (`$V1 = $V2`, `$P < 500000`) compare the
//! *values* bound to variables. Values are trees; the paper's examples
//! compare atomic content (zip codes). The rules implemented here:
//!
//! * two leaves compare numerically when both parse as integers, otherwise
//!   lexicographically by label;
//! * a tree whose content is wanted atomically uses its concatenated text
//!   (`Tree::text`), so `zip[91220]` and the bare leaf `91220` compare
//!   equal — matching how `$H zip._ $V1` binds the *content* of `zip`;
//! * `=`/`!=` on two non-leaf trees additionally accept structural
//!   (canonical) equality.

use mix_nav::pred::CmpOp;
use mix_xml::Tree;
use mix_xmas::Var;
use std::fmt;

/// An operand of a binding predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum PredOperand {
    /// The value bound to a variable.
    Var(Var),
    /// A string literal.
    Str(String),
    /// An integer literal.
    Int(i64),
}

impl PredOperand {
    /// The variables this operand mentions.
    pub fn vars(&self) -> Vec<Var> {
        match self {
            PredOperand::Var(v) => vec![v.clone()],
            _ => Vec::new(),
        }
    }

    /// Literal operand as a tree value.
    pub fn literal_tree(&self) -> Option<Tree> {
        match self {
            PredOperand::Var(_) => None,
            PredOperand::Str(s) => Some(Tree::leaf(s.as_str())),
            PredOperand::Int(i) => Some(Tree::leaf(i.to_string())),
        }
    }
}

impl fmt::Display for PredOperand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredOperand::Var(v) => write!(f, "{v}"),
            PredOperand::Str(s) => write!(f, "{s:?}"),
            PredOperand::Int(i) => write!(f, "{i}"),
        }
    }
}

/// A predicate over one variable binding.
#[derive(Debug, Clone, PartialEq)]
pub enum BindPred {
    /// Always true.
    True,
    /// A comparison between two operands.
    Cmp { left: PredOperand, op: CmpOp, right: PredOperand },
    /// Conjunction.
    And(Box<BindPred>, Box<BindPred>),
    /// Disjunction.
    Or(Box<BindPred>, Box<BindPred>),
    /// Negation.
    Not(Box<BindPred>),
}

impl BindPred {
    /// Equality between two variables — the common join predicate.
    pub fn var_eq(a: impl Into<Var>, b: impl Into<Var>) -> Self {
        BindPred::Cmp {
            left: PredOperand::Var(a.into()),
            op: CmpOp::Eq,
            right: PredOperand::Var(b.into()),
        }
    }

    /// All variables mentioned anywhere in the predicate.
    pub fn vars(&self) -> Vec<Var> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            BindPred::True => {}
            BindPred::Cmp { left, right, .. } => {
                for v in left.vars().into_iter().chain(right.vars()) {
                    if !out.contains(&v) {
                        out.push(v);
                    }
                }
            }
            BindPred::And(a, b) | BindPred::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            BindPred::Not(p) => p.collect_vars(out),
        }
    }

    /// Evaluate against a binding, looking up variable values through the
    /// given accessor. Missing variables make comparisons false (safe
    /// queries never hit this).
    pub fn eval<'a>(&self, lookup: &impl Fn(&Var) -> Option<&'a Tree>) -> bool {
        match self {
            BindPred::True => true,
            BindPred::Cmp { left, op, right } => {
                let lv = operand_value(left, lookup);
                let rv = operand_value(right, lookup);
                match (lv, rv) {
                    (Some(a), Some(b)) => value_cmp(&a, *op, &b),
                    _ => false,
                }
            }
            BindPred::And(a, b) => a.eval(lookup) && b.eval(lookup),
            BindPred::Or(a, b) => a.eval(lookup) || b.eval(lookup),
            BindPred::Not(p) => !p.eval(lookup),
        }
    }

    /// Conjoin two predicates, simplifying `True`.
    pub fn and(self, other: BindPred) -> BindPred {
        match (self, other) {
            (BindPred::True, p) | (p, BindPred::True) => p,
            (a, b) => BindPred::And(Box::new(a), Box::new(b)),
        }
    }
}

fn operand_value<'a>(
    op: &PredOperand,
    lookup: &impl Fn(&Var) -> Option<&'a Tree>,
) -> Option<std::borrow::Cow<'a, Tree>> {
    match op {
        PredOperand::Var(v) => lookup(v).map(std::borrow::Cow::Borrowed),
        other => other.literal_tree().map(std::borrow::Cow::Owned),
    }
}

impl fmt::Display for BindPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindPred::True => write!(f, "true"),
            BindPred::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            BindPred::And(a, b) => write!(f, "({a} and {b})"),
            BindPred::Or(a, b) => write!(f, "({a} or {b})"),
            BindPred::Not(p) => write!(f, "not ({p})"),
        }
    }
}

/// Total order on tree values for `orderBy`: numeric when both contents
/// parse as integers, otherwise lexicographic on text, canonical form as
/// the final tie-breaker (so sorting is deterministic on equal text).
pub fn value_ord(a: &Tree, b: &Tree) -> std::cmp::Ordering {
    let at = a.text_cow();
    let bt = b.text_cow();
    let primary = match (at.trim().parse::<i64>(), bt.trim().parse::<i64>()) {
        (Ok(x), Ok(y)) => x.cmp(&y),
        _ => at.cmp(&bt),
    };
    primary.then_with(|| a.canonical().cmp(&b.canonical()))
}

/// Compare two tree values (see the module docs for the rules).
pub fn value_cmp(a: &Tree, op: CmpOp, b: &Tree) -> bool {
    // Equality first tries structural equality — identical trees are always
    // `=` regardless of content parsing.
    if matches!(op, CmpOp::Eq) && a == b {
        return true;
    }
    if matches!(op, CmpOp::Ne) && a == b {
        return false;
    }
    let at = a.text_cow();
    let bt = b.text_cow();
    match (at.trim().parse::<i64>(), bt.trim().parse::<i64>()) {
        (Ok(x), Ok(y)) => op.eval(&x, &y),
        _ => op.eval(&&*at, &&*bt),
    }
}

/// A [`BindPred`] prepared for evaluation over many bindings: its
/// variables numbered once, in [`BindPred::vars`] order, and its literal
/// operands built once. The lazy `select` and `join` evaluate one per
/// candidate binding, reading the values by slot.
#[derive(Debug, Clone)]
pub struct PreparedPred {
    vars: Vec<Var>,
    node: Prepared,
}

#[derive(Debug, Clone)]
enum Prepared {
    True,
    Cmp { left: Slot, op: CmpOp, right: Slot },
    And(Box<Prepared>, Box<Prepared>),
    Or(Box<Prepared>, Box<Prepared>),
    Not(Box<Prepared>),
}

#[derive(Debug, Clone)]
enum Slot {
    /// Index into [`PreparedPred::vars`].
    Var(usize),
    Lit(Tree),
}

impl PreparedPred {
    /// Prepare `pred`.
    pub fn new(pred: &BindPred) -> Self {
        fn prep(p: &BindPred, vars: &[Var]) -> Prepared {
            let slot = |o: &PredOperand| match o {
                PredOperand::Var(v) => Slot::Var(
                    vars.iter().position(|x| x == v).expect("vars() lists every variable"),
                ),
                lit => Slot::Lit(lit.literal_tree().expect("a non-variable operand is a literal")),
            };
            match p {
                BindPred::True => Prepared::True,
                BindPred::Cmp { left, op, right } => {
                    Prepared::Cmp { left: slot(left), op: *op, right: slot(right) }
                }
                BindPred::And(a, b) => {
                    Prepared::And(Box::new(prep(a, vars)), Box::new(prep(b, vars)))
                }
                BindPred::Or(a, b) => {
                    Prepared::Or(Box::new(prep(a, vars)), Box::new(prep(b, vars)))
                }
                BindPred::Not(a) => Prepared::Not(Box::new(prep(a, vars))),
            }
        }
        let vars = pred.vars();
        let node = prep(pred, &vars);
        PreparedPred { vars, node }
    }

    /// The predicate's variables; slot `i` holds the value of `vars()[i]`.
    pub fn vars(&self) -> &[Var] {
        &self.vars
    }

    /// Evaluate with `value(i)` the value of slot `i`, with the semantics
    /// of [`BindPred::eval`]: a missing value makes its comparison false.
    pub fn eval<'a>(&'a self, value: &impl Fn(usize) -> Option<&'a Tree>) -> bool {
        fn go<'a>(p: &'a Prepared, value: &impl Fn(usize) -> Option<&'a Tree>) -> bool {
            let operand = |s: &'a Slot| match s {
                Slot::Var(i) => value(*i),
                Slot::Lit(t) => Some(t),
            };
            match p {
                Prepared::True => true,
                Prepared::Cmp { left, op, right } => match (operand(left), operand(right)) {
                    (Some(a), Some(b)) => value_cmp(a, *op, b),
                    _ => false,
                },
                Prepared::And(a, b) => go(a, value) && go(b, value),
                Prepared::Or(a, b) => go(a, value) || go(b, value),
                Prepared::Not(a) => !go(a, value),
            }
        }
        go(&self.node, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mix_xml::term::parse_term;

    fn t(s: &str) -> Tree {
        parse_term(s).unwrap()
    }

    #[test]
    fn leaf_comparisons() {
        assert!(value_cmp(&t("91220"), CmpOp::Eq, &t("91220")));
        assert!(!value_cmp(&t("91220"), CmpOp::Eq, &t("91223")));
        assert!(value_cmp(&t("9"), CmpOp::Lt, &t("10"))); // numeric, not lexicographic
        assert!(value_cmp(&t("apple"), CmpOp::Lt, &t("banana")));
        assert!(value_cmp(&t("91220"), CmpOp::Ne, &t("91223")));
    }

    #[test]
    fn element_content_comparisons() {
        // zip[91220] = 91220: the `zip._` path binds content, but even the
        // wrapped element compares via its text.
        assert!(value_cmp(&t("zip[91220]"), CmpOp::Eq, &t("91220")));
        assert!(value_cmp(&t("zip[91220]"), CmpOp::Lt, &t("zip[91223]")));
    }

    #[test]
    fn structural_equality() {
        let h = "home[addr[La Jolla],zip[91220]]";
        assert!(value_cmp(&t(h), CmpOp::Eq, &t(h)));
        assert!(value_cmp(
            &t(h),
            CmpOp::Ne,
            &t("home[addr[El Cajon],zip[91223]]")
        ));
    }

    #[test]
    fn predicate_eval() {
        let h = t("91220");
        let s = t("91220");
        let other = t("91223");
        let lookup = |v: &Var| -> Option<&Tree> {
            match v.name() {
                "V1" => Some(&h),
                "V2" => Some(&s),
                "V3" => Some(&other),
                _ => None,
            }
        };
        assert!(BindPred::var_eq("V1", "V2").eval(&lookup));
        assert!(!BindPred::var_eq("V1", "V3").eval(&lookup));
        // Missing variable → false, not panic.
        assert!(!BindPred::var_eq("V1", "MISSING").eval(&lookup));
        // Literal comparison.
        let p = BindPred::Cmp {
            left: PredOperand::Var(Var::new("V1")),
            op: CmpOp::Ge,
            right: PredOperand::Int(91000),
        };
        assert!(p.eval(&lookup));
    }

    #[test]
    fn prepared_predicates_agree_with_bind_pred() {
        let vals = [t("91220"), t("zip[91223]"), t("El Cajon")];
        let names = ["V1", "V2", "V3"];
        let lookup = |v: &Var| names.iter().position(|n| *n == v.name()).map(|i| &vals[i]);
        let lit = |o: PredOperand, op, r: PredOperand| BindPred::Cmp { left: o, op, right: r };
        let var = |n: &str| PredOperand::Var(Var::new(n));
        let preds = [
            BindPred::var_eq("V1", "V2"),
            lit(var("V2"), CmpOp::Gt, PredOperand::Int(91220)),
            lit(PredOperand::Str("Del Mar".into()), CmpOp::Lt, var("V3")),
            BindPred::Not(Box::new(BindPred::var_eq("V1", "MISSING"))),
            BindPred::Or(
                Box::new(BindPred::var_eq("V3", "V1")),
                Box::new(lit(var("V1"), CmpOp::Le, var("V2")).and(BindPred::True)),
            ),
        ];
        for p in &preds {
            let prepared = PreparedPred::new(p);
            let by_slot = |i: usize| lookup(&prepared.vars()[i]);
            assert_eq!(prepared.eval(&by_slot), p.eval(&lookup), "{p}");
        }
    }

    #[test]
    fn boolean_structure() {
        let yes = BindPred::True;
        let no = BindPred::Not(Box::new(BindPred::True));
        let lookup = |_: &Var| -> Option<&Tree> { None };
        assert!(BindPred::Or(Box::new(no.clone()), Box::new(yes.clone())).eval(&lookup));
        assert!(!BindPred::And(Box::new(no.clone()), Box::new(yes.clone())).eval(&lookup));
        // `and` smart-constructor folds True.
        assert_eq!(BindPred::True.and(no.clone()), no);
    }

    #[test]
    fn vars_collection() {
        let p = BindPred::var_eq("A", "B")
            .and(BindPred::Cmp {
                left: PredOperand::Var(Var::new("A")),
                op: CmpOp::Lt,
                right: PredOperand::Int(5),
            });
        assert_eq!(p.vars(), vec![Var::new("A"), Var::new("B")]);
    }

    #[test]
    fn display() {
        assert_eq!(BindPred::var_eq("V1", "V2").to_string(), "$V1 = $V2");
        assert_eq!(BindPred::True.to_string(), "true");
    }
}
