//! Demand-driven (lazy, memoizing) attribute evaluator.
//!
//! Works for every non-circular AG regardless of orderedness; used as the
//! production evaluator in the compiler, and as the semantic baseline the
//! plan evaluator is property-tested against.

use std::cell::RefCell;
use std::fmt;

use crate::attr::{AttrDir, AttrGrammar, ClassId, Dep};
use crate::tree::{AttrTree, NodeId};

/// Errors during demand evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// A dynamic dependency cycle was hit (possible when the grammar was
    /// not statically checked).
    Cycle {
        /// Node where the cycle closed.
        node: NodeId,
        /// Attribute class name.
        class: String,
    },
    /// No rule defines the demanded attribute (an inherited attribute of
    /// the root that was not supplied as an input).
    MissingInput {
        /// Node demanded.
        node: NodeId,
        /// Attribute class name.
        class: String,
    },
    /// The demanded class is not attached to the node's symbol.
    NotAttached {
        /// Node demanded.
        node: NodeId,
        /// Attribute class name.
        class: String,
    },
    /// A rule demanded a token value that the leaf does not carry.
    MissingToken {
        /// Leaf node.
        node: NodeId,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Cycle { node, class } => {
                write!(f, "dynamic attribute cycle at node {node} on {class}")
            }
            EvalError::MissingInput { node, class } => {
                write!(
                    f,
                    "no value for inherited {class} at node {node} (root input missing?)"
                )
            }
            EvalError::NotAttached { node, class } => {
                write!(f, "attribute {class} not attached to symbol of node {node}")
            }
            EvalError::MissingToken { node } => write!(f, "node {node} carries no token value"),
        }
    }
}

impl std::error::Error for EvalError {}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Empty,
    InProgress,
    Done,
}

/// A demand-driven evaluator over one attributed tree.
pub struct DemandEval<'a, V> {
    ag: &'a AttrGrammar<V>,
    tree: &'a AttrTree<V>,
    root_inh: Vec<(ClassId, V)>,
    memo: RefCell<Vec<Vec<Option<V>>>>,
    state: RefCell<Vec<Vec<SlotState>>>,
    /// Number of rule invocations performed (statistics).
    n_rule_evals: RefCell<usize>,
}

impl<'a, V: Clone + 'static> DemandEval<'a, V> {
    /// Creates an evaluator. `root_inh` supplies values for the inherited
    /// attributes of the root (start) symbol — the translation's inputs.
    pub fn new(ag: &'a AttrGrammar<V>, tree: &'a AttrTree<V>, root_inh: Vec<(ClassId, V)>) -> Self {
        let memo = tree
            .node_ids()
            .map(|n| vec![None; ag.attrs_of(tree.node(n).symbol).len()])
            .collect();
        let state = tree
            .node_ids()
            .map(|n| vec![SlotState::Empty; ag.attrs_of(tree.node(n).symbol).len()])
            .collect();
        DemandEval {
            ag,
            tree,
            root_inh,
            memo: RefCell::new(memo),
            state: RefCell::new(state),
            n_rule_evals: RefCell::new(0),
        }
    }

    /// Demands attribute `class` of `node`.
    ///
    /// # Errors
    ///
    /// See [`EvalError`].
    pub fn value(&self, node: NodeId, class: ClassId) -> Result<V, EvalError> {
        let sym = self.tree.node(node).symbol;
        let slot = self
            .ag
            .slot(sym, class)
            .ok_or_else(|| EvalError::NotAttached {
                node,
                class: self.ag.class_name(class).to_string(),
            })?;
        match self.state.borrow()[node][slot] {
            SlotState::Done => {
                return Ok(self.memo.borrow()[node][slot]
                    .clone()
                    .expect("done slot holds value"))
            }
            SlotState::InProgress => {
                return Err(EvalError::Cycle {
                    node,
                    class: self.ag.class_name(class).to_string(),
                })
            }
            SlotState::Empty => {}
        }
        self.state.borrow_mut()[node][slot] = SlotState::InProgress;
        let result = self.compute(node, class);
        match result {
            Ok(v) => {
                self.memo.borrow_mut()[node][slot] = Some(v.clone());
                self.state.borrow_mut()[node][slot] = SlotState::Done;
                Ok(v)
            }
            Err(e) => {
                self.state.borrow_mut()[node][slot] = SlotState::Empty;
                Err(e)
            }
        }
    }

    /// Demands a synthesized attribute of the root — a *goal attribute*,
    /// the result of the translation.
    pub fn root_value(&self, class: ClassId) -> Result<V, EvalError> {
        self.value(self.tree.root(), class)
    }

    /// Number of semantic-rule invocations so far.
    pub fn n_rule_evals(&self) -> usize {
        *self.n_rule_evals.borrow()
    }

    fn compute(&self, node: NodeId, class: ClassId) -> Result<V, EvalError> {
        let n = self.tree.node(node);
        // Locate the defining rule: synthesized → this node's production;
        // inherited → the parent's production, targeting our occurrence.
        let (rule_node, rule) = match self.ag.dir(class) {
            AttrDir::Synthesized => {
                let prod = n.prod.expect("synthesized attr on leaf");
                match self.ag.rule_for(prod, 0, class) {
                    Some(r) => (node, r),
                    None => {
                        return Err(EvalError::MissingInput {
                            node,
                            class: self.ag.class_name(class).to_string(),
                        })
                    }
                }
            }
            AttrDir::Inherited => match n.parent {
                Some((parent, occ)) => {
                    let prod = self.tree.node(parent).prod.expect("parent is interior");
                    match self.ag.rule_for(prod, occ, class) {
                        Some(r) => (parent, r),
                        None => {
                            return Err(EvalError::MissingInput {
                                node,
                                class: self.ag.class_name(class).to_string(),
                            })
                        }
                    }
                }
                None => {
                    // Root inherited attribute: an input.
                    return self
                        .root_inh
                        .iter()
                        .find(|(c, _)| *c == class)
                        .map(|(_, v)| v.clone())
                        .ok_or_else(|| EvalError::MissingInput {
                            node,
                            class: self.ag.class_name(class).to_string(),
                        });
                }
            },
        };
        // Resolve occurrences relative to the production owning the rule.
        let occ_node = |occ: usize| -> NodeId {
            if occ == 0 {
                rule_node
            } else {
                self.tree.node(rule_node).children[occ - 1]
            }
        };
        let mut args = Vec::with_capacity(rule.deps.len());
        for d in &rule.deps {
            match *d {
                Dep::Attr(occ, c) => args.push(self.value(occ_node(occ), c)?),
                Dep::Token(occ) => {
                    let leaf = occ_node(occ);
                    args.push(
                        self.tree
                            .node(leaf)
                            .token
                            .clone()
                            .ok_or(EvalError::MissingToken { node: leaf })?,
                    );
                }
            }
        }
        *self.n_rule_evals.borrow_mut() += 1;
        Ok((rule.func)(&args))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::{AgBuilder, AttrDir, Dep, Implicit};
    use ag_lalr::{GrammarBuilder, ParseTable, Parser, Token};
    use std::sync::Arc;

    /// Knuth's binary number AG, fractional part included: value of
    /// "1 1 0 1" with the point after position 2 etc. Here: integers only,
    /// scale threaded via inh.
    fn setup() -> (Arc<ag_lalr::Grammar>, AttrGrammar<i64>, ParseTable) {
        let mut g = GrammarBuilder::new();
        let bit = g.terminal("bit");
        let l = g.nonterminal("l");
        let n = g.nonterminal("n");
        g.prod(n, &[l.into()], "n_l");
        g.prod(l, &[l.into(), bit.into()], "l_rec");
        g.prod(l, &[bit.into()], "l_bit");
        g.start(n);
        let g = Arc::new(g.build().unwrap());
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let len = ab.class("LEN", AttrDir::Synthesized, Implicit::None);
        let scale = ab.class("SCALE", AttrDir::Inherited, Implicit::None);
        let val = ab.class("VAL", AttrDir::Synthesized, Implicit::None);
        let ln = g.symbol("l").unwrap();
        let nn = g.symbol("n").unwrap();
        ab.attach(len, ln);
        ab.attach(scale, ln);
        ab.attach(val, ln);
        ab.attach(val, nn);
        let p_nl = g.prod_by_label("n_l").unwrap();
        let p_rec = g.prod_by_label("l_rec").unwrap();
        let p_bit = g.prod_by_label("l_bit").unwrap();
        ab.rule(p_nl, 1, scale, vec![], |_| 0);
        ab.rule(p_nl, 0, val, vec![Dep::attr(1, val)], |d| d[0]);
        ab.rule(p_rec, 0, len, vec![Dep::attr(1, len)], |d| d[0] + 1);
        ab.rule(p_rec, 1, scale, vec![Dep::attr(0, scale)], |d| d[0] + 1);
        ab.rule(
            p_rec,
            0,
            val,
            vec![Dep::attr(1, val), Dep::token(2), Dep::attr(0, scale)],
            |d| d[0] + d[1] * (1 << d[2]),
        );
        ab.rule(p_bit, 0, len, vec![], |_| 1);
        ab.rule(
            p_bit,
            0,
            val,
            vec![Dep::token(1), Dep::attr(0, scale)],
            |d| d[0] * (1 << d[1]),
        );
        let ag = ab.build().unwrap();
        let table = ParseTable::build(&g).unwrap();
        (g, ag, table)
    }

    fn eval_bits(bits: &[i64]) -> i64 {
        let (g, ag, table) = setup();
        let parser = Parser::new(&g, &table);
        let bit = g.symbol("bit").unwrap();
        let tree = parser
            .parse(bits.iter().map(|&b| Token::new(bit, b)))
            .unwrap();
        let at = crate::tree::AttrTree::from_parse_tree(&g, &tree);
        let ev = DemandEval::new(&ag, &at, vec![]);
        let val = ag.class_by_name("VAL").unwrap();
        ev.root_value(val).unwrap()
    }

    #[test]
    fn binary_number_values() {
        assert_eq!(eval_bits(&[1]), 1);
        assert_eq!(eval_bits(&[1, 0]), 2);
        assert_eq!(eval_bits(&[1, 1, 0, 1]), 13);
        assert_eq!(eval_bits(&[0, 0, 1]), 1);
    }

    #[test]
    fn memoization_counts_each_rule_once() {
        let (g, ag, table) = setup();
        let parser = Parser::new(&g, &table);
        let bit = g.symbol("bit").unwrap();
        let tree = parser
            .parse([1i64, 0, 1].iter().map(|&b| Token::new(bit, b)))
            .unwrap();
        let at = crate::tree::AttrTree::from_parse_tree(&g, &tree);
        let ev = DemandEval::new(&ag, &at, vec![]);
        let val = ag.class_by_name("VAL").unwrap();
        let v1 = ev.root_value(val).unwrap();
        let count = ev.n_rule_evals();
        let v2 = ev.root_value(val).unwrap();
        assert_eq!(v1, v2);
        assert_eq!(ev.n_rule_evals(), count, "second demand is memoized");
    }

    #[test]
    fn missing_root_input_reported() {
        // Demand SCALE of the root l? SCALE isn't on the root symbol n; use
        // a tree where l is root-adjacent: demand scale of l child works
        // (has a rule), but a fresh inh on n would fail. Simplest check: ask
        // for a class not attached to n.
        let (g, ag, table) = setup();
        let parser = Parser::new(&g, &table);
        let bit = g.symbol("bit").unwrap();
        let tree = parser.parse(vec![Token::new(bit, 1i64)]).unwrap();
        let at = crate::tree::AttrTree::from_parse_tree(&g, &tree);
        let ev = DemandEval::new(&ag, &at, vec![]);
        let scale = ag.class_by_name("SCALE").unwrap();
        let err = ev.root_value(scale).unwrap_err();
        assert!(matches!(err, EvalError::NotAttached { .. }));
    }

    #[test]
    fn root_inherited_inputs_used() {
        // Give `n` an inherited class and check the supplied value reaches
        // rules.
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let n = g.nonterminal("n");
        g.prod(n, &[a.into()], "n_a");
        g.start(n);
        let g = Arc::new(g.build().unwrap());
        let mut ab = AgBuilder::<i64>::new(Arc::clone(&g));
        let base = ab.class("BASE", AttrDir::Inherited, Implicit::None);
        let out = ab.class("OUT", AttrDir::Synthesized, Implicit::None);
        let nn = g.symbol("n").unwrap();
        ab.attach(base, nn);
        ab.attach(out, nn);
        let p = g.prod_by_label("n_a").unwrap();
        ab.rule(p, 0, out, vec![Dep::attr(0, base)], |d| d[0] * 10);
        let ag = ab.build().unwrap();
        let table = ParseTable::build(&g).unwrap();
        let parser = Parser::new(&g, &table);
        let tree = parser.parse(vec![Token::new(a, 0i64)]).unwrap();
        let at = crate::tree::AttrTree::from_parse_tree(&g, &tree);
        let ev = DemandEval::new(&ag, &at, vec![(base, 7)]);
        assert_eq!(ev.root_value(out).unwrap(), 70);
        // Without the input it fails.
        let ev2 = DemandEval::new(&ag, &at, vec![]);
        assert!(matches!(
            ev2.root_value(out).unwrap_err(),
            EvalError::MissingInput { .. }
        ));
    }
}
