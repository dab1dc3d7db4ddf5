//! Command-line front of the benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--tiny]
//! ```
//!
//! Prints a report line, then the result line, as JSON. A traced run also
//! writes its spans to `out/trace-<workload>-<seed>.jsonl` beside this
//! package's manifest. Exits with 1 when the correctness gate failed and 2
//! on a usage error.

use std::process::ExitCode;

use scanpower_perfbench::{run, trace, Config};

fn parse() -> Result<Config, String> {
    let mut config = Config {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        tiny: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => config.workload = value("--workload")?,
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                config.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                config.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--tiny" => config.tiny = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if config.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse().and_then(|config| run(&config).map(|outcome| (config, outcome))) {
        Ok(pair) => pair,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let (config, outcome) = config;
    if config.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace-{}-{}.jsonl", config.workload, config.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, trace::to_json_lines(outcome.spans())));
        if let Err(error) = written {
            eprintln!("perfbench: could not write {}: {error}", path.display());
        }
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: gate: {failure}");
    }
    println!("{}", outcome.report_line(&config));
    println!("{}", outcome.result_line(&config));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
