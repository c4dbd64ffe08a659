//! Attributed parse trees: the arena the evaluators decorate.

use ag_lalr::{ParseTree, ProdId, SymbolId};

/// Index of a node in an [`AttrTree`].
pub type NodeId = usize;

/// One node of an attributed tree.
#[derive(Clone, Debug)]
pub struct TreeNode<V> {
    /// Production for interior nodes, `None` for terminal leaves.
    pub prod: Option<ProdId>,
    /// The grammar symbol at this node.
    pub symbol: SymbolId,
    /// Parent node and this node's occurrence index in the parent's
    /// production (1-based), `None` at the root.
    pub parent: Option<(NodeId, usize)>,
    /// Children, one per RHS symbol.
    pub children: Vec<NodeId>,
    /// Token value for leaves.
    pub token: Option<V>,
}

/// An arena-allocated parse tree ready for attribute evaluation.
///
/// Built from an [`ag_lalr::ParseTree`]; keeps parent links so inherited
/// attributes can be demanded upward.
#[derive(Clone, Debug)]
pub struct AttrTree<V> {
    nodes: Vec<TreeNode<V>>,
    root: NodeId,
}

impl<V: Clone> AttrTree<V> {
    /// Converts a concrete parse tree into an arena.
    pub fn from_parse_tree(g: &ag_lalr::Grammar, tree: &ParseTree<V>) -> Self {
        let mut nodes = Vec::new();
        let root = build(g, tree, None, &mut nodes);
        AttrTree { nodes, root }
    }

    /// The root node (an interior node for the start symbol).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Access a node.
    pub fn node(&self, id: NodeId) -> &TreeNode<V> {
        &self.nodes[id]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes (never the case for built trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all node ids (preorder of construction).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }
}

fn build<V: Clone>(
    g: &ag_lalr::Grammar,
    tree: &ParseTree<V>,
    parent: Option<(NodeId, usize)>,
    nodes: &mut Vec<TreeNode<V>>,
) -> NodeId {
    match tree {
        ParseTree::Leaf { term, value } => {
            let id = nodes.len();
            nodes.push(TreeNode {
                prod: None,
                symbol: *term,
                parent,
                children: Vec::new(),
                token: Some(value.clone()),
            });
            id
        }
        ParseTree::Node { prod, children } => {
            let id = nodes.len();
            nodes.push(TreeNode {
                prod: Some(*prod),
                symbol: g.lhs(*prod),
                parent,
                children: Vec::new(),
                token: None,
            });
            let kids: Vec<NodeId> = children
                .iter()
                .enumerate()
                .map(|(i, c)| build(g, c, Some((id, i + 1)), nodes))
                .collect();
            nodes[id].children = kids;
            id
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ag_lalr::{GrammarBuilder, ParseTable, Parser, Token};
    use std::sync::Arc;

    #[test]
    fn arena_mirrors_parse_tree() {
        let mut g = GrammarBuilder::new();
        let a = g.terminal("a");
        let s = g.nonterminal("s");
        g.prod(s, &[a.into(), s.into()], "s_rec");
        g.prod(s, &[], "s_empty");
        g.start(s);
        let g = Arc::new(g.build().unwrap());
        let table = ParseTable::build(&g).unwrap();
        let parser = Parser::new(&g, &table);
        let tree = parser
            .parse(vec![Token::new(a, 1), Token::new(a, 2)])
            .unwrap();
        let at = AttrTree::from_parse_tree(&g, &tree);
        assert_eq!(at.len(), 5); // s(a, s(a, s()))
        let root = at.node(at.root());
        assert_eq!(root.symbol, s);
        assert!(root.parent.is_none());
        assert_eq!(root.children.len(), 2);
        let leaf = at.node(root.children[0]);
        assert_eq!(leaf.token, Some(1));
        assert_eq!(leaf.parent, Some((at.root(), 1)));
        let child = at.node(root.children[1]);
        assert_eq!(child.parent, Some((at.root(), 2)));
        assert!(!at.is_empty());
    }
}
