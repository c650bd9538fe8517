//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage: `repro [experiment...]` where each experiment is one of the
//! names in [`USAGE`] (the `usage_matches_dispatch_table` test keeps
//! that list in sync with the dispatch table, and the unknown-name
//! error prints it in full). The named experiments run in argument
//! order; no argument means `all`.
//!
//! Text renderings go to stdout; CSV artifacts go to `results/`.

#![deny(clippy::expect_used)]

use etm_cluster::spec::paper_cluster;
use etm_cluster::CommLibProfile;
use etm_core::plan::MeasurementPlan;
use etm_repro::correlate::CorrelationPoint;
use etm_repro::experiments::{
    campaign_cost, evaluate_campaign, fig1_multiprocessing, fig2_netpipe, fig3a_load_imbalance,
    fig3b_multiprocess, timing_claims, CampaignEvaluation,
};
use etm_repro::table::TextTable;
use etm_repro::write_csv;

/// One dispatch-table entry: the accepted names (aliases share a
/// runner — a figure and its table regenerate together) and what runs.
type Experiment = (&'static [&'static str], fn());

/// The dispatch table, in `all`'s execution order.
const EXPERIMENTS: &[Experiment] = &[
    (&["table1"], table1),
    (&["plans"], plans),
    (&["fig1"], fig1),
    (&["fig2"], fig2),
    (&["fig3"], fig3),
    (&["table3"], table3),
    (&["table6"], table6),
    // The three campaign evaluations (correlations + best-config tables).
    (&["fig6_7", "table4"], basic_campaign),
    (&["fig8_11", "table7"], nl_campaign),
    (&["fig12_15", "table9"], ns_campaign),
    (&["timings"], timings),
    (&["ablations"], ablations),
    (&["models"], models),
    (&["baselines"], baselines),
    (&["stream"], stream),
    (&["chaos"], chaos),
    (&["pareto"], pareto),
    (&["loop"], loop_replay),
];

/// Space-separated usage list; `usage_matches_dispatch_table` pins it
/// to [`EXPERIMENTS`] so it cannot drift.
const USAGE: &str = "table1 plans fig1 fig2 fig3 table3 table6 fig6_7 table4 \
     fig8_11 table7 fig12_15 table9 timings ablations models baselines \
     stream chaos pareto loop all";

/// The runners `names` select, in argument order: each alias names its
/// runner and `all` names every runner in table order. An empty list
/// means `all`.
///
/// # Errors
/// The first name that matches no experiment.
fn select(names: &[String]) -> Result<Vec<&'static Experiment>, String> {
    if names.is_empty() {
        return Ok(EXPERIMENTS.iter().collect());
    }
    let mut runs = Vec::new();
    for name in names {
        if name == "all" {
            runs.extend(EXPERIMENTS);
            continue;
        }
        let run = EXPERIMENTS
            .iter()
            .find(|(aliases, _)| aliases.contains(&name.as_str()))
            .ok_or_else(|| name.clone())?;
        runs.push(run);
    }
    Ok(runs)
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    match select(&names) {
        Ok(runs) => {
            for (_, run) in runs {
                run();
            }
        }
        Err(unknown) => {
            eprintln!("unknown experiment: {unknown}");
            eprintln!("available: {USAGE}");
            std::process::exit(2);
        }
    }
}

fn table1() {
    println!("\n== Table 1: HPL execution environment (simulated analogue) ==");
    let spec = paper_cluster(CommLibProfile::mpich122());
    let mut t = TextTable::new(vec!["node", "kind", "cpus", "memory MB", "peak Gflops"]);
    for node in &spec.nodes {
        let k = spec.kind(node.kind);
        t.row(vec![
            node.name.clone(),
            k.name.clone(),
            node.cpus.to_string(),
            format!("{:.0}", node.memory_bytes / 1048576.0),
            format!("{:.2}", k.peak_flops / 1e9),
        ]);
    }
    print!("{}", t.render());
    println!(
        "network: {:.1} MB/s, {:.0} us latency; comm lib: {}",
        spec.network.bandwidth / 1e6,
        spec.network.latency * 1e6,
        spec.comm_lib.name
    );
}

fn plans() {
    println!("\n== Tables 2/5/8: measurement campaigns ==");
    for plan in [
        MeasurementPlan::basic(),
        MeasurementPlan::nl(),
        MeasurementPlan::ns(),
    ] {
        println!(
            "{:?}: construction {} trials over N={:?} ({} configs/N); evaluation {} points over N={:?}",
            plan.kind,
            plan.construction.len(),
            plan.construction_ns,
            plan.configs_per_n(),
            plan.evaluation.len(),
            plan.evaluation_ns,
        );
    }
}

fn fig1() {
    println!("\n== Fig 1: multiprocessing performance of the Athlon, two MPICH profiles ==");
    for (tag, profile) in [
        ("a_mpich121", CommLibProfile::mpich121()),
        ("b_mpich122", CommLibProfile::mpich122()),
    ] {
        let rows = fig1_multiprocessing(profile);
        let mut t = TextTable::new(vec!["n (P/CPU)", "N", "Gflops"]);
        let csv: Vec<String> = rows
            .iter()
            .map(|(m, n, g)| {
                t.row(vec![m.to_string(), n.to_string(), format!("{g:.3}")]);
                format!("{m},{n},{g:.4}")
            })
            .collect();
        println!("-- {} --", profile.name);
        print!("{}", t.render());
        write_csv(&format!("fig1{tag}"), "procs_per_cpu,n,gflops", &csv);
    }
}

fn fig2() {
    println!("\n== Fig 2: intra-node throughput vs block size (NetPIPE analogue) ==");
    for (tag, profile) in [
        ("a_mpich121", CommLibProfile::mpich121()),
        ("b_mpich122", CommLibProfile::mpich122()),
    ] {
        let samples = fig2_netpipe(profile);
        let mut t = TextTable::new(vec!["block KiB", "Gbps"]);
        let csv: Vec<String> = samples
            .iter()
            .map(|s| {
                t.row(vec![
                    format!("{:.0}", s.block_bytes / 1024.0),
                    format!("{:.3}", s.bits_per_sec / 1e9),
                ]);
                format!("{},{:.1}", s.block_bytes, s.bits_per_sec)
            })
            .collect();
        println!("-- {} --", profile.name);
        print!("{}", t.render());
        write_csv(&format!("fig2{tag}"), "block_bytes,bits_per_sec", &csv);
    }
}

fn fig3() {
    println!("\n== Fig 3: HPL performance of heterogeneous configurations ==");
    for (tag, series) in [
        ("a_loadimbalance", fig3a_load_imbalance()),
        ("b_multiprocess", fig3b_multiprocess()),
    ] {
        println!("-- fig3{tag} --");
        let mut csv = Vec::new();
        for s in &series {
            let pts: Vec<String> = s
                .points
                .iter()
                .map(|(n, g)| format!("N={n}:{g:.2}"))
                .collect();
            println!("{:>18}: {}", s.label, pts.join(" "));
            for (n, g) in &s.points {
                csv.push(format!("{},{},{:.4}", s.label, n, g));
            }
        }
        write_csv(&format!("fig3{tag}"), "series,n,gflops", &csv);
    }
}

fn cost_table(plan: &MeasurementPlan, name: &str) {
    let (_, cost) = campaign_cost(plan);
    let mut t = TextTable::new(vec!["N", "Athlon [s]", "Pentium-II [s]"]);
    let mut csv = Vec::new();
    let (mut ta, mut tp) = (0.0, 0.0);
    for (n, a, p) in &cost.rows {
        t.row(vec![n.to_string(), format!("{a:.1}"), format!("{p:.1}")]);
        csv.push(format!("{n},{a:.2},{p:.2}"));
        ta += a;
        tp += p;
    }
    t.row(vec![
        "Total".to_string(),
        format!("{ta:.1}"),
        format!("{tp:.1}"),
    ]);
    print!("{}", t.render());
    println!(
        "total measurement time: {:.0} simulated seconds (~{:.1} h)",
        cost.total,
        cost.total / 3600.0
    );
    write_csv(name, "n,athlon_seconds,pentium_seconds", &csv);
}

fn table3() {
    println!("\n== Table 3: measurement cost of the Basic campaign ==");
    cost_table(&MeasurementPlan::basic(), "table3_basic_cost");
}

fn table6() {
    println!("\n== Table 6: measurement cost of the NL/NS campaigns ==");
    println!("-- NL --");
    cost_table(&MeasurementPlan::nl(), "table6_nl_cost");
    println!("-- NS --");
    cost_table(&MeasurementPlan::ns(), "table6_ns_cost");
}

fn correlation_csv(name: &str, points: &[CorrelationPoint]) {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{},{},{:.3},{:.3},{:.3}",
                p.m1,
                p.config.total_processes(),
                p.estimate_raw,
                p.estimate_adjusted,
                p.measured
            )
        })
        .collect();
    write_csv(
        name,
        "m1,total_procs,estimate_raw,estimate_adjusted,measured",
        &rows,
    );
}

fn best_table(eval: &CampaignEvaluation, spec_name: &str, csv_name: &str) {
    let spec = paper_cluster(CommLibProfile::mpich122());
    let mut t = TextTable::new(vec![
        "N",
        "estimated best",
        "tau",
        "tau_hat",
        "actual best",
        "T_hat",
        "(tau-T)/T",
        "(tauh-T)/T",
    ]);
    let mut csv = Vec::new();
    for r in &eval.best_rows {
        t.row(vec![
            r.n.to_string(),
            r.estimated_best.label(&spec),
            format!("{:.1}", r.tau),
            format!("{:.1}", r.tau_hat),
            r.actual_best.label(&spec),
            format!("{:.1}", r.t_hat),
            format!("{:+.3}", r.estimate_error()),
            format!("{:+.3}", r.selection_penalty()),
        ]);
        csv.push(format!(
            "{},{},{:.3},{:.3},{},{:.3},{:.4},{:.4}",
            r.n,
            r.estimated_best.label(&spec),
            r.tau,
            r.tau_hat,
            r.actual_best.label(&spec),
            r.t_hat,
            r.estimate_error(),
            r.selection_penalty()
        ));
    }
    println!("-- {spec_name} --");
    print!("{}", t.render());
    write_csv(
        csv_name,
        "n,estimated_best,tau,tau_hat,actual_best,t_hat,estimate_error,selection_penalty",
        &csv,
    );
}

fn basic_campaign() {
    println!("\n== Basic model: Figs 6/7 correlations + Table 4 best configurations ==");
    let eval = evaluate_campaign(&MeasurementPlan::basic());
    for (n, points) in &eval.correlations {
        if *n == 6400 {
            correlation_csv("fig6_7_basic_correlation_n6400", points);
        }
    }
    best_table(&eval, "Table 4 (Basic model)", "table4_basic_best");
}

fn nl_campaign() {
    println!("\n== NL model: Figs 8-11 correlations + Table 7 best configurations ==");
    let eval = evaluate_campaign(&MeasurementPlan::nl());
    for (n, points) in &eval.correlations {
        if *n == 1600 {
            correlation_csv("fig8_10_nl_correlation_n1600", points);
        }
        if *n == 6400 {
            correlation_csv("fig9_11_nl_correlation_n6400", points);
        }
    }
    best_table(&eval, "Table 7 (NL model)", "table7_nl_best");
}

fn ns_campaign() {
    println!("\n== NS model: Figs 12-15 correlations + Table 9 best configurations ==");
    let eval = evaluate_campaign(&MeasurementPlan::ns());
    for (n, points) in &eval.correlations {
        if *n == 1600 {
            correlation_csv("fig12_13_ns_correlation_n1600", points);
        }
        if *n == 6400 {
            correlation_csv("fig14_15_ns_correlation_n6400", points);
        }
    }
    best_table(&eval, "Table 9 (NS model)", "table9_ns_best");
}

fn timings() {
    println!("\n== Section 4 timing claims: model construction / estimation speed ==");
    for (plan, label) in [
        (MeasurementPlan::basic(), "Basic (54 configs)"),
        (MeasurementPlan::nl(), "NL (30 configs)"),
    ] {
        let (fit_s, est_s) = timing_claims(&plan);
        println!(
            "{label}: model fit {:.2} ms (paper: 0.69/0.52 ms), 62-config estimation {:.2} ms (paper: 35/26.4 ms)",
            fit_s * 1e3,
            est_s * 1e3
        );
    }
}

fn ablations() {
    use etm_repro::experiments::{ablation_bcast, ablation_block_size, ablation_network};
    println!("\n== Ablations (extensions beyond the paper) ==");

    println!("-- network: 100base-TX vs 1000base-SX (installed but unused in the paper) --");
    let mut t = TextTable::new(vec!["config", "N", "fastE [s]", "gigabit [s]", "speedup"]);
    let mut csv = Vec::new();
    for (label, n, tf, tg) in ablation_network() {
        t.row(vec![
            label.clone(),
            n.to_string(),
            format!("{tf:.1}"),
            format!("{tg:.1}"),
            format!("{:.2}x", tf / tg),
        ]);
        csv.push(format!("{label},{n},{tf:.3},{tg:.3}"));
    }
    print!("{}", t.render());
    write_csv(
        "ablation_network",
        "config,n,fast_ethernet_s,gigabit_s",
        &csv,
    );

    println!("-- HPL block size NB --");
    let mut t = TextTable::new(vec!["N", "NB", "wall [s]"]);
    let mut csv = Vec::new();
    for (n, nb, w) in ablation_block_size() {
        t.row(vec![n.to_string(), nb.to_string(), format!("{w:.1}")]);
        csv.push(format!("{n},{nb},{w:.3}"));
    }
    print!("{}", t.render());
    write_csv("ablation_block_size", "n,nb,wall_s", &csv);

    println!("-- panel broadcast algorithm --");
    let mut t = TextTable::new(vec!["config", "N", "ring [s]", "binomial [s]"]);
    let mut csv = Vec::new();
    for (label, n, r, b) in ablation_bcast() {
        t.row(vec![
            label.clone(),
            n.to_string(),
            format!("{r:.1}"),
            format!("{b:.1}"),
        ]);
        csv.push(format!("{label},{n},{r:.3},{b:.3}"));
    }
    print!("{}", t.render());
    write_csv("ablation_bcast", "config,n,ring_s,binomial_s", &csv);

    println!("-- process-grid shape (P2 x 8, 2-D extension) --");
    let mut t = TextTable::new(vec!["grid", "N", "wall [s]"]);
    let mut csv = Vec::new();
    for (grid, n, w) in etm_repro::experiments::ablation_grid_shape() {
        t.row(vec![grid.clone(), n.to_string(), format!("{w:.1}")]);
        csv.push(format!("{grid},{n},{w:.3}"));
    }
    print!("{}", t.render());
    write_csv("ablation_grid_shape", "grid,n,wall_s", &csv);
}

fn models() {
    use etm_core::report::render_estimator;
    use etm_repro::experiments::estimator_for;
    println!("\n== Fitted model banks (coefficients k0..k11) ==");
    for plan in [MeasurementPlan::basic(), MeasurementPlan::nl()] {
        println!("-- {:?} campaign --", plan.kind);
        let est = estimator_for(&plan);
        print!("{}", render_estimator(&est));
    }
}

fn stream() {
    use etm_core::stream::StreamConfig;
    use etm_repro::stream::stream_experiment;
    println!("\n== Streaming ingestion: online §4 re-optimization over the Basic campaign ==");
    let spec = paper_cluster(CommLibProfile::mpich122());
    let cfg = StreamConfig {
        batch_size: 32,
        shuffle_seed: Some(2004),
        duplicate_every: 7,
        ..StreamConfig::default()
    };
    let run = stream_experiment(&MeasurementPlan::basic(), cfg, 0.02, 6400);
    let mut t = TextTable::new(vec![
        "gen",
        "search best",
        "tau_best [s]",
        "recommended",
        "tau_rec [s]",
        "switched",
        "degraded",
    ]);
    let mut csv = Vec::new();
    for d in &run.decisions {
        t.row(vec![
            d.generation.to_string(),
            d.best.config.label(&spec),
            format!("{:.1}", d.best.time),
            d.recommended.label(&spec),
            format!("{:.1}", d.recommended_time),
            if d.switched { "yes" } else { "" }.to_string(),
            if d.degraded { "yes" } else { "" }.to_string(),
        ]);
        csv.push(format!(
            "{},{},{:.4},{},{:.4},{},{}",
            d.generation,
            d.best.config.label(&spec),
            d.best.time,
            d.recommended.label(&spec),
            d.recommended_time,
            d.switched,
            d.degraded
        ));
    }
    print!("{}", t.render());
    println!(
        "{} batches, {} snapshots published, {} transient fit errors; \
         final bank bit-identical to one-shot fit: {}",
        run.report.batches, run.report.published, run.report.fit_errors, run.converged
    );
    println!(
        "online recommendation {} vs offline optimum {} (tau {:.1} s)",
        run.recommended.label(&spec),
        run.offline.config.label(&spec),
        run.offline.time
    );
    write_csv(
        "stream_decisions",
        "generation,best,tau_best,recommended,tau_recommended,switched,degraded",
        &csv,
    );
}

fn chaos() {
    use etm_repro::chaos::{chaos_suite, format_groups};
    println!("\n== Chaos: seeded fault plans vs the degradation ladder (NL campaign) ==");
    let rows = chaos_suite(&MeasurementPlan::nl(), 3200);
    let mut t = TextTable::new(vec![
        "scenario",
        "batches",
        "rejected",
        "quarantined",
        "fallback",
        "converged",
        "decisions",
        "untrusted recs",
        "ok",
    ]);
    let mut csv = Vec::new();
    for r in &rows {
        t.row(vec![
            r.scenario.to_string(),
            r.batches.to_string(),
            r.rejected.to_string(),
            format_groups(&r.quarantined),
            format_groups(&r.fallback),
            if r.converged { "yes" } else { "" }.to_string(),
            r.decisions.to_string(),
            r.untrusted_recommendations.to_string(),
            if r.ok { "yes" } else { "FAIL" }.to_string(),
        ]);
        csv.push(format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            r.scenario,
            r.recoverable,
            r.batches,
            r.published,
            r.rejected,
            r.corrupted,
            format_groups(&r.quarantined),
            format_groups(&r.fallback),
            r.converged,
            r.decisions,
            r.untrusted_recommendations,
            r.ok
        ));
    }
    print!("{}", t.render());
    let failed = rows.iter().filter(|r| !r.ok).count();
    println!(
        "{} scenarios, {} degraded-by-design, {} invariant failures",
        rows.len(),
        rows.iter().filter(|r| !r.recoverable).count(),
        failed
    );
    write_csv(
        "chaos_report",
        "scenario,recoverable,batches,published,rejected,corrupted,quarantined,fallback,converged,decisions,untrusted_recommendations,ok",
        &csv,
    );
    if failed > 0 {
        eprintln!("chaos invariant violated in {failed} scenario(s)");
        std::process::exit(1);
    }
}

fn pareto() {
    use etm_repro::pareto::pareto_experiment;
    println!("\n== Anytime optimizer: pruned argmin audit + time x energy Pareto fronts ==");
    let spec = paper_cluster(CommLibProfile::mpich122());
    let report = pareto_experiment(&MeasurementPlan::basic());
    let mut t = TextTable::new(vec![
        "n",
        "argmin",
        "tau [s]",
        "front",
        "evaluated",
        "pruned",
        "cert hits",
        "identical",
    ]);
    let mut csv = Vec::new();
    for row in &report.rows {
        t.row(vec![
            row.n.to_string(),
            row.best
                .as_ref()
                .map_or("(none)".to_string(), |b| b.config.label(&spec)),
            row.best
                .as_ref()
                .map_or("-".to_string(), |b| format!("{:.1}", b.time)),
            row.front.len().to_string(),
            format!("{}/{}", row.evaluated, row.candidates),
            row.pruned.to_string(),
            row.certificate_hits.to_string(),
            if row.identical { "yes" } else { "NO" }.to_string(),
        ]);
        for (i, p) in row.front.iter().enumerate() {
            csv.push(format!(
                "{},{},{},{:.6},{:.3},{},{},{},{}",
                row.n,
                i,
                p.config.label(&spec),
                p.time,
                p.energy,
                row.candidates,
                row.evaluated,
                row.pruned,
                row.certificate_hits
            ));
        }
    }
    print!("{}", t.render());
    println!(
        "totals: {} evaluated / {} candidates, {} pruned across {} sizes",
        report.evaluated(),
        report.candidates(),
        report.pruned(),
        report.rows.len()
    );
    write_csv(
        "pareto",
        "n,point,config,time_s,energy_j,candidates,evaluated,pruned,certificate_hits",
        &csv,
    );
    if !report.ok() {
        eprintln!(
            "anytime optimizer gate breached: identical={} evaluated={} candidates={} pruned={}",
            report.identical(),
            report.evaluated(),
            report.candidates(),
            report.pruned()
        );
        std::process::exit(1);
    }
}

fn baselines() {
    use etm_repro::experiments::baselines_comparison;
    println!("\n== Baselines: unmodified vs multiprocessing vs rewritten (weighted) HPL ==");
    let mut t = TextTable::new(vec![
        "N",
        "equal (M1=1) [s]",
        "best multiproc [s]",
        "best M1",
        "weighted rewrite [s]",
        "multiproc captures",
    ]);
    let mut csv = Vec::new();
    for (n, equal, multi, m1, weighted) in baselines_comparison() {
        let captured = if equal > weighted {
            100.0 * (equal - multi) / (equal - weighted)
        } else {
            100.0
        };
        t.row(vec![
            n.to_string(),
            format!("{equal:.1}"),
            format!("{multi:.1}"),
            m1.to_string(),
            format!("{weighted:.1}"),
            format!("{captured:.0}%"),
        ]);
        csv.push(format!("{n},{equal:.3},{multi:.3},{m1},{weighted:.3}"));
    }
    print!("{}", t.render());
    println!(
        "-> \"multiproc captures\" = share of the rewrite's improvement that\n\
         the no-rewrite multiprocessing approach recovers (the paper's pitch)."
    );
    write_csv(
        "baselines_comparison",
        "n,equal_s,best_multiproc_s,best_m1,weighted_s",
        &csv,
    );
}

fn loop_replay() {
    use etm_repro::loopback::{loop_suite, LOOP_CSV_HEADER};
    println!("\n== Closed loop: predict -> execute -> learn under execution faults ==");
    let suite = loop_suite(&MeasurementPlan::basic());
    let mut t = TextTable::new(vec![
        "scenario",
        "tau",
        "penalty",
        "exec",
        "fail",
        "held",
        "fallback",
        "switch",
        "trip",
        "regret [s]",
        "oracle [s]",
        "ok",
    ]);
    let mut csv = Vec::new();
    for r in &suite.rows {
        t.row(vec![
            r.scenario.clone(),
            format!("{:.2}", r.tau),
            format!("{:.2}", r.penalty),
            r.executed.to_string(),
            r.failures.to_string(),
            r.held_out.to_string(),
            r.fallbacks.to_string(),
            r.switches.to_string(),
            r.tripped.to_string(),
            format!("{:.1}", r.regret_seconds),
            format!("{:.1}", r.oracle_seconds),
            if r.ok { "yes" } else { "FAIL" }.to_string(),
        ]);
        csv.push(r.csv());
    }
    print!("{}", t.render());
    let failed = suite.rows.iter().filter(|r| !r.ok).count();
    println!(
        "{} rows ({} scenarios + {} sweep points), {} invariant failures",
        suite.rows.len(),
        suite.rows.iter().filter(|r| r.scenario != "sweep").count(),
        suite.rows.iter().filter(|r| r.scenario == "sweep").count(),
        failed
    );
    write_csv("loop_regret", LOOP_CSV_HEADER, &csv);
    if failed > 0 {
        eprintln!("closed-loop invariant violated in {failed} row(s)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod usage_tests {
    use super::{select, EXPERIMENTS, USAGE};

    /// Every name the dispatch table accepts, plus `all`.
    fn known_experiments() -> Vec<&'static str> {
        let mut names: Vec<&'static str> = EXPERIMENTS
            .iter()
            .flat_map(|(aliases, _)| aliases.iter().copied())
            .collect();
        names.push("all");
        names
    }

    #[test]
    fn usage_matches_dispatch_table() {
        let usage: Vec<&str> = USAGE.split_whitespace().collect();
        assert_eq!(
            usage,
            known_experiments(),
            "USAGE and the EXPERIMENTS dispatch table have drifted"
        );
    }

    /// The first alias of each selected runner.
    fn selected(names: &[&str]) -> Result<Vec<&'static str>, String> {
        let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        select(&names).map(|runs| runs.iter().map(|(aliases, _)| aliases[0]).collect())
    }

    #[test]
    fn select_runs_every_named_experiment_in_argument_order() {
        assert_eq!(selected(&["fig2", "fig1"]), Ok(vec!["fig2", "fig1"]));
        assert_eq!(
            selected(&["table7", "table1"]),
            Ok(vec!["fig8_11", "table1"])
        );
        let every: Vec<&str> = EXPERIMENTS.iter().map(|(aliases, _)| aliases[0]).collect();
        assert_eq!(selected(&[]), Ok(every.clone()));
        assert_eq!(selected(&["all"]), Ok(every));
    }

    #[test]
    fn select_rejects_an_unknown_name_anywhere() {
        assert_eq!(
            selected(&["table1", "bogus-name"]),
            Err("bogus-name".into())
        );
        assert_eq!(
            selected(&["bogus-name", "table1"]),
            Err("bogus-name".into())
        );
    }

    #[test]
    fn experiment_names_are_unique() {
        let mut names = known_experiments();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate experiment name");
        assert_eq!(before, EXPERIMENTS.len() + 4, "three aliased runners + all");
    }
}
