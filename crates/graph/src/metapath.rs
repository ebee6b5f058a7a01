//! Metapath schemes (paper Def. 3 & 4).
//!
//! A metapath scheme is an alternating sequence of node types and relations,
//! `o_0 -r_1-> o_1 -r_2-> … -r_n-> o_n`. The paper distinguishes
//! *intra-relationship* schemes (all relations equal) from
//! *inter-relationship* schemes. Schemes can be parsed from compact strings
//! such as `"U-A-U"` given a mapping from letters to node types.

use std::fmt;

use crate::store::GraphStore;
use crate::{NodeId, NodeTypeId, RelationId, Schema};

/// A metapath scheme `P = o_0 -r_1-> o_1 … -r_n-> o_n`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct MetapathScheme {
    node_types: Vec<NodeTypeId>,
    relations: Vec<RelationId>,
}

impl MetapathScheme {
    /// Creates a scheme from explicit type and relation sequences.
    ///
    /// # Panics
    ///
    /// Panics unless `node_types.len() == relations.len() + 1` and the path
    /// has at least one hop.
    pub fn new(node_types: Vec<NodeTypeId>, relations: Vec<RelationId>) -> Self {
        assert!(
            !relations.is_empty(),
            "a metapath scheme needs at least one hop"
        );
        assert_eq!(
            node_types.len(),
            relations.len() + 1,
            "need one more node type than relations"
        );
        Self {
            node_types,
            relations,
        }
    }

    /// Creates an intra-relationship scheme: every hop uses relation `r`.
    pub fn intra(node_types: Vec<NodeTypeId>, r: RelationId) -> Self {
        assert!(!node_types.is_empty(), "empty metapath");
        let hops = node_types.len() - 1;
        Self::new(node_types, vec![r; hops])
    }

    /// Parses a compact form such as `"U-I-U"` under one relation.
    ///
    /// Each dash-separated token is looked up via `lookup` (mapping token →
    /// node-type name in `schema`).
    ///
    /// # Panics
    ///
    /// Panics on unknown tokens.
    #[expect(
        clippy::panic,
        reason = "a test and experiment convenience: an unknown token is a programmer error"
    )]
    pub fn parse_intra(
        spec: &str,
        r: RelationId,
        schema: &Schema,
        lookup: impl Fn(&str) -> &'static str,
    ) -> Self {
        let types: Vec<NodeTypeId> = spec
            .split('-')
            .map(|tok| {
                let name = lookup(tok);
                schema
                    .node_type_id(name)
                    .unwrap_or_else(|| panic!("unknown node type {name:?} for token {tok:?}"))
            })
            .collect();
        Self::intra(types, r)
    }

    /// Number of hops `|P|`.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// Always false — schemes have ≥ 1 hop by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The node-type sequence.
    pub fn node_types(&self) -> &[NodeTypeId] {
        &self.node_types
    }

    /// The relation sequence.
    pub fn relations(&self) -> &[RelationId] {
        &self.relations
    }

    /// The starting node type `o_0`.
    pub fn source_type(&self) -> NodeTypeId {
        self.node_types[0]
    }

    /// The terminal node type `o_n`.
    #[expect(
        clippy::unwrap_used,
        reason = "`MetapathScheme::new` rejects empty schemes, so `node_types` is never empty"
    )]
    pub fn target_type(&self) -> NodeTypeId {
        *self.node_types.last().unwrap()
    }

    /// Whether all hops share a relation (paper Def. 3:
    /// intra-relationship scheme).
    pub fn is_intra_relationship(&self) -> bool {
        self.relations.windows(2).all(|w| w[0] == w[1])
    }

    /// Whether the scheme is symmetric (reads the same reversed) — e.g.
    /// `U-I-U` is, `D-M-A` is not.
    pub fn is_symmetric(&self) -> bool {
        let n = self.node_types.len();
        (0..n).all(|i| self.node_types[i] == self.node_types[n - 1 - i])
            && self.relations.iter().eq(self.relations.iter().rev())
    }

    /// Validates the scheme against a graph's schema.
    pub fn validate(&self, schema: &Schema) -> Result<(), String> {
        for &t in &self.node_types {
            if t.index() >= schema.num_node_types() {
                return Err(format!("node type {t:?} not in schema"));
            }
        }
        for &r in &self.relations {
            if r.index() >= schema.num_relations() {
                return Err(format!("relation {r:?} not in schema"));
            }
        }
        Ok(())
    }

    /// Checks whether a concrete node sequence is an instance of this scheme
    /// in `graph` (paper Def. 4). Works over any [`GraphStore`] backend —
    /// in-RAM or sharded — with identical results.
    pub fn matches_instance<G: GraphStore>(&self, graph: &G, nodes: &[NodeId]) -> bool {
        if nodes.len() != self.node_types.len() {
            return false;
        }
        for (v, &ty) in nodes.iter().zip(&self.node_types) {
            if graph.node_type(*v) != ty {
                return false;
            }
        }
        for (w, &r) in nodes.windows(2).zip(&self.relations) {
            if !graph.has_edge(w[0], w[1], r) {
                return false;
            }
        }
        true
    }

    /// Human-readable form using schema names, e.g.
    /// `user -like-> video -like-> user`.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a MetapathScheme, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.1.node_type_name(self.0.node_types[0]))?;
                for (i, &r) in self.0.relations.iter().enumerate() {
                    write!(
                        f,
                        " -{}-> {}",
                        self.1.relation_name(r),
                        self.1.node_type_name(self.0.node_types[i + 1])
                    )?;
                }
                Ok(())
            }
        }
        D(self, schema)
    }
}

impl fmt::Debug for MetapathScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.node_types[0].0)?;
        for (i, r) in self.relations.iter().enumerate() {
            write!(f, "-r{}-t{}", r.0, self.node_types[i + 1].0)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, MultiplexGraph};

    fn uvu_setup() -> (MultiplexGraph, MetapathScheme) {
        let mut schema = Schema::new();
        let user = schema.add_node_type("user");
        let video = schema.add_node_type("video");
        let like = schema.add_relation("like");
        let comment = schema.add_relation("comment");

        let mut b = GraphBuilder::new(schema);
        let u0 = b.add_node(user);
        let u1 = b.add_node(user);
        let v = b.add_node(video);
        b.add_edge(u0, v, like);
        b.add_edge(u1, v, like);
        b.add_edge(u0, v, comment);
        let g = b.build();
        let scheme = MetapathScheme::intra(vec![user, video, user], like);
        (g, scheme)
    }

    #[test]
    fn intra_detection() {
        let (_, scheme) = uvu_setup();
        assert!(scheme.is_intra_relationship());
        assert_eq!(scheme.len(), 2);

        let inter = MetapathScheme::new(
            vec![NodeTypeId(0), NodeTypeId(1), NodeTypeId(0)],
            vec![RelationId(0), RelationId(1)],
        );
        assert!(!inter.is_intra_relationship());
    }

    #[test]
    fn symmetry() {
        let (_, scheme) = uvu_setup();
        assert!(scheme.is_symmetric());
        let asym = MetapathScheme::intra(vec![NodeTypeId(0), NodeTypeId(1)], RelationId(0));
        assert!(!asym.is_symmetric());
    }

    #[test]
    fn instance_matching() {
        let (g, scheme) = uvu_setup();
        let (u0, u1, v) = (NodeId(0), NodeId(1), NodeId(2));
        assert!(scheme.matches_instance(&g, &[u0, v, u1]));
        assert!(scheme.matches_instance(&g, &[u0, v, u0])); // revisit allowed
        assert!(!scheme.matches_instance(&g, &[u0, u1, v])); // type mismatch
        assert!(!scheme.matches_instance(&g, &[u0, v])); // length mismatch
    }

    #[test]
    fn instance_respects_relation() {
        let (g, _) = uvu_setup();
        let schema = g.schema();
        let user = schema.node_type_id("user").unwrap();
        let video = schema.node_type_id("video").unwrap();
        let comment = schema.relation_id("comment").unwrap();
        let scheme = MetapathScheme::intra(vec![user, video, user], comment);
        // u1 has no comment edge, so u0-v-u1 is not a comment instance.
        assert!(!scheme.matches_instance(&g, &[NodeId(0), NodeId(2), NodeId(1)]));
    }

    #[test]
    fn validate_against_schema() {
        let (g, scheme) = uvu_setup();
        assert!(scheme.validate(g.schema()).is_ok());
        let bad = MetapathScheme::intra(vec![NodeTypeId(9), NodeTypeId(9)], RelationId(0));
        assert!(bad.validate(g.schema()).is_err());
    }

    #[test]
    fn display_form() {
        let (g, scheme) = uvu_setup();
        assert_eq!(
            scheme.display(g.schema()).to_string(),
            "user -like-> video -like-> user"
        );
    }

    #[test]
    fn parse_intra_tokens() {
        let (g, _) = uvu_setup();
        let like = g.schema().relation_id("like").unwrap();
        let scheme = MetapathScheme::parse_intra("U-V-U", like, g.schema(), |t| match t {
            "U" => "user",
            "V" => "video",
            other => panic!("unknown token {other}"),
        });
        assert_eq!(scheme.len(), 2);
        assert!(scheme.is_symmetric());
    }
}
