//! `llmms` — command-line interface to the multi-model querying platform.
//!
//! ```text
//! llmms ask "<question>" [--strategy oua|mab|hybrid|single] [--budget N] [--trace]
//! llmms chat                         # interactive session (:q to quit)
//! llmms eval [--items N] [--budget N]
//! llmms dataset --out FILE [--items N] [--seed N]
//! llmms serve [--addr HOST:PORT] [--persist DIR] [--fsync-every N]
//!             [--tenant-quota RATE:BURST:CONCURRENT] [--max-in-flight N] [--target-p99-ms N]
//!             [--sched-shares TENANT:WEIGHT[,...]]
//!             [--edge-max-conns N] [--edge-idle-timeout-ms N]
//!             [--edge-max-keepalive-requests N]
//! llmms models
//! ```

use llmms::core::{OrchestrationResult, Strategy};
use llmms::platform::AskOptions;
use llmms::Platform;
use std::io::{BufRead, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("ask") => cmd_ask(&args[1..]),
        Some("chat") => cmd_chat(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]),
        Some("dataset") => cmd_dataset(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("models") => cmd_models(),
        Some("help") | None => {
            print_usage();
            0
        }
        Some(other) => {
            eprintln!("unknown command {other:?}\n");
            print_usage();
            2
        }
    };
    std::process::exit(code);
}

fn print_usage() {
    println!(
        "llmms — multi-model LLM search engine (LLM-MS reproduction)\n\n\
         USAGE:\n  \
         llmms ask \"<question>\" [--strategy oua|mab|hybrid|single] [--budget N] [--trace] [--instruct \"...\"]\n  \
         llmms chat\n  \
         llmms eval [--items N] [--budget N]\n  \
         llmms dataset --out FILE [--items N] [--seed N]\n  \
         llmms serve [--addr HOST:PORT] [--persist DIR] [--fsync-every N]\n              \
         [--tenant-quota RATE:BURST:CONCURRENT] [--max-in-flight N] [--target-p99-ms N]\n              \
         [--sched-shares TENANT:WEIGHT[,...]]\n              \
         [--edge-max-conns N] [--edge-idle-timeout-ms N]\n              \
         [--edge-max-keepalive-requests N]\n  \
         llmms models"
    );
}

/// Extract `--flag value` from an argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn flag_present(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Reject, with the usage text and exit code 2, any `--flag` that is neither
/// in `valued` (must be followed by its value) nor in `switches`.
fn check_flags(
    command: &str,
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<(), i32> {
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        let problem = if !arg.starts_with("--") || switches.contains(&arg) {
            None
        } else if !valued.contains(&arg) {
            Some(format!("unknown flag {arg}"))
        } else if rest.next().is_some_and(|value| !value.starts_with("--")) {
            None
        } else {
            Some(format!("{arg} expects a value"))
        };
        if let Some(problem) = problem {
            eprintln!("{command}: {problem}\n");
            print_usage();
            return Err(2);
        }
    }
    Ok(())
}

/// `--flag value` parsed as `T`; a malformed value is reported and becomes
/// exit code 2.
fn parsed_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    expects: &str,
) -> Result<Option<T>, i32> {
    let Some(value) = flag_value(args, flag) else {
        return Ok(None);
    };
    value.parse().map(Some).map_err(|_| {
        eprintln!("serve: {flag} expects {expects}, got {value:?}");
        2
    })
}

fn print_result(result: &OrchestrationResult, trace: bool) {
    println!("{}", result.response());
    eprintln!(
        "\n[{} | winner {} | answer {} tok | total {} tok | ~{:?}]",
        result.strategy,
        result.best_outcome().model,
        result.best_outcome().tokens,
        result.total_tokens,
        result.simulated_latency(),
    );
    if trace {
        eprintln!("scores:");
        for o in &result.outcomes {
            eprintln!(
                "  {:<12} score={:.3} tokens={:<3} pruned={} done={:?}",
                o.model, o.score, o.tokens, o.pruned, o.done
            );
        }
    }
}

fn cmd_ask(args: &[String]) -> i32 {
    let valued = ["--strategy", "--budget", "--instruct"];
    if let Err(code) = check_flags("ask", args, &valued, &["--trace"]) {
        return code;
    }
    let Some(question) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("ask: missing question");
        return 2;
    };
    let platform = Platform::evaluation_default();
    if let Some(instruction) = flag_value(args, "--instruct") {
        let directives = platform.instruct(instruction);
        if !directives.unrecognized.is_empty() {
            eprintln!("(ignored clauses: {:?})", directives.unrecognized);
        }
    }
    let mut config = platform.orchestrator_config();
    if let Some(s) = flag_value(args, "--strategy") {
        match Strategy::from_name(s) {
            Some(strategy) => config.strategy = strategy,
            None => {
                eprintln!("ask: unknown strategy {s:?}");
                return 2;
            }
        }
    }
    if let Some(b) = flag_value(args, "--budget").and_then(|b| b.parse().ok()) {
        config.token_budget = b;
    }
    platform.set_orchestrator_config(config);
    match platform.ask(question) {
        Ok(result) => {
            print_result(&result, flag_present(args, "--trace"));
            0
        }
        Err(e) => {
            eprintln!("ask failed: {e}");
            1
        }
    }
}

fn cmd_chat(_args: &[String]) -> i32 {
    let platform = Platform::evaluation_default();
    let session = platform.sessions().create();
    let session_id = session.read().id.clone();
    println!(
        "llmms chat — {} models loaded, strategy {}.",
        platform.models().len(),
        platform.orchestrator_config().strategy.label()
    );
    println!("Commands: :q quit · :strategy <name> · :instruct <text> · :trace toggles scores\n");
    let stdin = std::io::stdin();
    let mut trace = false;
    loop {
        print!("you> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            return 0; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == ":q" || line == ":quit" {
            return 0;
        }
        if line == ":trace" {
            trace = !trace;
            println!("trace {}", if trace { "on" } else { "off" });
            continue;
        }
        if let Some(name) = line.strip_prefix(":strategy ") {
            match Strategy::from_name(name.trim()) {
                Some(strategy) => {
                    let mut config = platform.orchestrator_config();
                    config.strategy = strategy;
                    platform.set_orchestrator_config(config);
                    println!("strategy -> {name}");
                }
                None => println!("unknown strategy {name:?}"),
            }
            continue;
        }
        if let Some(instruction) = line.strip_prefix(":instruct ") {
            let d = platform.instruct(instruction);
            println!("applied: {d:?}");
            continue;
        }
        let options = AskOptions {
            session_id: Some(session_id.clone()),
            ..Default::default()
        };
        match platform.ask_with(line, &options) {
            Ok(result) => print_result(&result, trace),
            Err(e) => eprintln!("error: {e}"),
        }
    }
}

fn cmd_eval(args: &[String]) -> i32 {
    if let Err(code) = check_flags("eval", args, &["--items", "--budget"], &[]) {
        return code;
    }
    let items = flag_value(args, "--items")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);
    let budget = flag_value(args, "--budget")
        .and_then(|v| v.parse().ok())
        .unwrap_or(2048);
    let dataset = llmms::eval::generate(&llmms::eval::GeneratorConfig {
        items,
        ..Default::default()
    });
    let config = llmms::eval::HarnessConfig {
        token_budget: budget,
        ..Default::default()
    };
    match llmms::eval::run_eval(&dataset, &config) {
        Ok(report) => {
            println!("{}", llmms::eval::report::figure_8_1(&report));
            println!("{}", llmms::eval::report::figure_8_2(&report));
            println!("{}", llmms::eval::report::figure_8_3(&report));
            println!("{}", llmms::eval::report::markdown_table(&report));
            0
        }
        Err(e) => {
            eprintln!("eval failed: {e}");
            1
        }
    }
}

fn cmd_dataset(args: &[String]) -> i32 {
    if let Err(code) = check_flags("dataset", args, &["--out", "--items", "--seed"], &[]) {
        return code;
    }
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("dataset: --out FILE is required");
        return 2;
    };
    let items = flag_value(args, "--items")
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    let seed = flag_value(args, "--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);
    let dataset = llmms::eval::generate(&llmms::eval::GeneratorConfig {
        items,
        seed,
        ..Default::default()
    });
    match dataset.save(std::path::Path::new(out)) {
        Ok(()) => {
            println!("wrote {} items to {out}", dataset.len());
            0
        }
        Err(e) => {
            eprintln!("dataset write failed: {e}");
            1
        }
    }
}

/// Every flag `serve` takes; each is followed by a value.
const SERVE_FLAGS: [&str; 10] = [
    "--addr",
    "--persist",
    "--fsync-every",
    "--tenant-quota",
    "--max-in-flight",
    "--target-p99-ms",
    "--sched-shares",
    "--edge-max-conns",
    "--edge-idle-timeout-ms",
    "--edge-max-keepalive-requests",
];

fn cmd_serve(args: &[String]) -> i32 {
    let (platform, server_config) = match serve_setup(args) {
        Ok(setup) => setup,
        Err(code) => return code,
    };
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:7341");
    let platform = std::sync::Arc::new(platform);
    if platform.is_durable() {
        let docs = platform.retriever().documents();
        println!("durable store: {} document(s) recovered", docs.len());
    }
    match llmms::server::Server::start_with(platform, addr, server_config) {
        Ok(server) => {
            println!("llmms serving on http://{}", server.addr());
            println!("  curl http://{}/healthz", server.addr());
            loop {
                std::thread::park();
            }
        }
        Err(e) => {
            eprintln!("serve failed: {e}");
            1
        }
    }
}

/// The platform and server configuration `serve`'s flags describe, or the
/// exit code after reporting what is wrong with them.
fn serve_setup(args: &[String]) -> Result<(Platform, llmms::server::ServerConfig), i32> {
    check_flags("serve", args, &SERVE_FLAGS, &[])?;
    let platform = if let Some(persist) = flag_value(args, "--persist") {
        let knowledge =
            llmms::eval::generate(&llmms::eval::GeneratorConfig::default()).to_knowledge();
        let mut builder = Platform::builder()
            .knowledge(knowledge)
            .persist_path(persist);
        if let Some(n) = parsed_flag(args, "--fsync-every", "an integer")? {
            builder = builder.fsync_every(n);
        }
        builder.build().map_err(|e| {
            eprintln!("serve: failed to open store at {persist:?}: {e}");
            1
        })?
    } else {
        Platform::evaluation_default()
    };
    let mut server_config = llmms::server::ServerConfig::default();
    if let Some(spec) = flag_value(args, "--tenant-quota") {
        // RATE:BURST:CONCURRENT, e.g. `--tenant-quota 10:20:4` — 10 queries
        // per second sustained, bursts of 20, 4 concurrent.
        let parts: Vec<&str> = spec.split(':').collect();
        let quota = match parts.as_slice() {
            [rate, burst, conc] => match (rate.parse(), burst.parse(), conc.parse()) {
                (Ok(rate_per_sec), Ok(burst), Ok(max_concurrent)) => {
                    Some(llmms::server::TenantQuota {
                        rate_per_sec,
                        burst,
                        max_concurrent,
                    })
                }
                _ => None,
            },
            _ => None,
        };
        server_config.admission.default_quota = quota.ok_or_else(|| {
            eprintln!("serve: --tenant-quota expects RATE:BURST:CONCURRENT, got {spec:?}");
            2
        })?;
    }
    if let Some(n) = parsed_flag(args, "--max-in-flight", "an integer")? {
        server_config.max_in_flight = n;
    }
    if let Some(n) = parsed_flag(args, "--target-p99-ms", "an integer")? {
        server_config.target_p99_ms = n;
    }
    if let Some(spec) = flag_value(args, "--sched-shares") {
        // TENANT:WEIGHT[,TENANT:WEIGHT...], e.g. `--sched-shares
        // acme:3,trial:1` — acme's queries get 3× the executor dispatch
        // share of trial's whenever both have work queued.
        for pair in spec.split(',') {
            let parsed = match pair.split_once(':') {
                Some((tenant, weight)) if !tenant.trim().is_empty() => weight
                    .trim()
                    .parse::<u32>()
                    .ok()
                    .filter(|w| *w > 0)
                    .map(|w| (tenant.trim(), w)),
                _ => None,
            };
            let (tenant, weight) = parsed.ok_or_else(|| {
                eprintln!(
                    "serve: --sched-shares expects TENANT:WEIGHT[,TENANT:WEIGHT...] \
                     with positive weights, got {pair:?}"
                );
                2
            })?;
            llmms::exec::set_tenant_share(tenant, weight);
        }
    }
    if let Some(n) = parsed_flag(args, "--edge-max-conns", "an integer")? {
        server_config.edge.max_conns = n;
    }
    if let Some(ms) = parsed_flag(args, "--edge-idle-timeout-ms", "milliseconds")? {
        server_config.edge.idle_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(n) = parsed_flag(args, "--edge-max-keepalive-requests", "an integer")? {
        server_config.edge.max_keepalive_requests = n;
    }
    Ok((platform, server_config))
}

fn cmd_models() -> i32 {
    let platform = Platform::evaluation_default();
    println!(
        "{:<14} {:>7} {:>9} {:>8} {:>10}",
        "NAME", "PARAMS", "CONTEXT", "QUANT", "TOK/S"
    );
    for model in platform.models() {
        let info = model.info();
        println!(
            "{:<14} {:>6.0}B {:>9} {:>8} {:>10.0}",
            info.name,
            info.params_b,
            info.context_window,
            info.quantization,
            info.decode_tokens_per_second,
        );
    }
    let hw = platform.registry().hardware().report();
    println!(
        "\nGPU: Tesla V100-PCIE-32GB — {:.1}/{:.1} GiB in use",
        hw.used_vram_gb, hw.total_vram_gb
    );
    0
}
