//! Table 1 — "Useful mappings of base values and operations in evaluating
//! provenance graphs": demonstrates each semiring's base value, ⊗, and ⊕
//! by evaluating the running example (Figure 1) and printing the resulting
//! annotation for every `O` tuple.

use proql::engine::{Engine, Strategy};
use proql_bench::json_output;
use proql_provgraph::system::example_2_1;
use proql_service::proto::json_str;

fn main() {
    proql_bench::banner(
        "Table 1: semiring annotation computations",
        "each row = one use case; annotations of the O tuples in Figure 1",
    );

    let queries: Vec<(&str, String)> = vec![
        ("Derivability", wrap("DERIVABILITY", "")),
        (
            "Trust",
            wrap(
                "TRUST",
                "ASSIGNING EACH leaf_node $y {
                   CASE $y in A AND $y.len >= 6 : SET false
                   DEFAULT : SET true
                 } ASSIGNING EACH mapping $p($z) {
                   CASE $p = m4 : SET false
                   DEFAULT : SET $z
                 }",
            ),
        ),
        (
            "Confidentiality",
            wrap(
                "CONFIDENTIALITY",
                "ASSIGNING EACH leaf_node $y {
                   CASE $y in A : SET secret
                   DEFAULT : SET public
                 }",
            ),
        ),
        (
            "Weight/cost",
            wrap(
                "WEIGHT",
                "ASSIGNING EACH leaf_node $y {
                   CASE $y in A : SET 10
                   DEFAULT : SET 1
                 }",
            ),
        ),
        ("Lineage", wrap("LINEAGE", "")),
        (
            "Probability",
            wrap(
                "PROBABILITY",
                "ASSIGNING EACH leaf_node $y {
                   DEFAULT : SET 0.9
                 }",
            ),
        ),
    ];

    for (name, q) in queries {
        let mut engine = Engine::new(example_2_1().expect("example builds"));
        engine.options.strategy = Strategy::Graph;
        let out = engine.query(&q).expect("query runs");
        let ann = out.annotated.expect("annotated");
        println!("-- {name}");
        let mut rows = ann.rows.clone();
        rows.sort_by(|a, b| a.key.cmp(&b.key));
        for row in rows {
            print!("   O{} = {}", row.key, row.annotation);
            let mut probability = None;
            if name == "Probability" {
                if let Some(ev) = row.annotation.as_event() {
                    let p = proql_semiring::event_probability(ev, &|e| {
                        *ann.leaf_probs.get(e).unwrap_or(&0.9)
                    })
                    .unwrap_or(f64::NAN);
                    print!("   [P = {p:.4}]");
                    probability = Some(p);
                }
            }
            println!();
            if json_output() {
                let mut fields = vec![
                    format!("\"fig\": {}", json_str("table1")),
                    format!("\"use_case\": {}", json_str(name)),
                    format!("\"key\": {}", json_str(&format!("{}", row.key))),
                    format!(
                        "\"annotation\": {}",
                        json_str(&format!("{}", row.annotation))
                    ),
                ];
                // NaN (a failed probability computation) is not valid
                // JSON; omit the field rather than corrupt the line.
                if let Some(p) = probability.filter(|p| p.is_finite()) {
                    fields.push(format!("\"probability\": {p:.6}"));
                }
                println!("{{{}}}", fields.join(", "));
            }
        }
    }

    // The counting semiring diverges on the (cyclic) full example — the
    // limitation Table 1's discussion calls out — so demonstrate it on the
    // acyclic projection through m4/m5 only.
    println!("-- Number of derivations (acyclic projection via m4/m5)");
    let sys = example_2_1().expect("example builds");
    let g = proql_provgraph::ProvGraph::from_system(&sys).expect("graph");
    let derivs: Vec<_> = g
        .derivation_ids()
        .filter(|&d| {
            let n = g.derivation(d);
            n.is_base || n.mapping == "m4" || n.mapping == "m5"
        })
        .collect();
    let sub = g.project(derivs);
    let vals = proql_semiring::evaluate(
        &sub,
        &proql_semiring::Assignment::default_for(proql_semiring::SemiringKind::Counting),
    )
    .expect("counting on acyclic projection");
    for t in sub.tuple_ids() {
        let node = sub.tuple(t);
        if node.relation == "O" {
            println!("   O{} = {}", node.key, vals[&t]);
            if json_output() {
                println!(
                    "{{\"fig\": {}, \"use_case\": {}, \"key\": {}, \"annotation\": {}}}",
                    json_str("table1"),
                    json_str("Number of derivations"),
                    json_str(&format!("{}", node.key)),
                    json_str(&format!("{}", vals[&t])),
                );
            }
        }
    }
}

fn wrap(semiring: &str, assigning: &str) -> String {
    format!(
        "EVALUATE {semiring} OF {{ FOR [O $x] INCLUDE PATH [$x] <-+ [] RETURN $x }} {assigning}"
    )
}
