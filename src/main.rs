//! `simsub` — command-line interface for the similar-subtrajectory-search
//! library: generate corpora, train models, and run searches over CSV
//! trajectory files.
//!
//! ```text
//! simsub generate --dataset porto --count 500 --seed 7 --out corpus.csv
//! simsub train-t2vec --corpus corpus.csv --steps 400 --out t2vec.ssub
//! simsub train --corpus corpus.csv --measure dtw --episodes 800 --skip 3 --out policy.ssub
//! simsub search --corpus corpus.csv --data-id 5 --query query.csv --algo pss --measure dtw
//! simsub topk --corpus corpus.csv --query query.csv --k 10 --algo pss --index rtree
//! simsub serve --corpus corpus.csv --addr 127.0.0.1:7878 --workers 8
//! simsub admin info --addr 127.0.0.1:7878
//! simsub admin reload --addr 127.0.0.1:7878 --corpus fresh.csv
//! ```

use simsub::core::{
    train_rls, ExactS, MdpConfig, Pos, PosD, Pss, Rls, RlsTrainConfig, SizeS, Spring, SubtrajSearch,
};
use simsub::data::{
    generate, read_bin_file, read_csv_file, write_bin_file, write_csv_file, DatasetSpec,
};
use simsub::index::TrajectoryDb;
use simsub::measures::{Dtw, Frechet, Measure, T2Vec, T2VecConfig};
use simsub::nn::BinaryCodec;
use simsub::rl::Policy;
use simsub::service::{
    json::Json, CorpusSnapshot, EngineConfig, Knob, KnobKind, QueryEngine, Server,
};
use simsub::trajectory::{CorpusArena, Trajectory};
use std::path::PathBuf;
use std::process::exit;
use std::sync::Arc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage();
        exit(2);
    };
    // `admin` and `corpus` take a positional action before their flags;
    // everything else is pure `--flag value` pairs.
    let result = if cmd == "admin" {
        match rest.split_first() {
            Some((action, admin_rest)) => match Flags::parse(admin_rest, cmd) {
                Ok(flags) => cmd_admin(action, &flags),
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(2);
                }
            },
            None => Err("admin needs an action: info|stats|ping|reload|configure|shutdown".into()),
        }
    } else if cmd == "corpus" {
        match rest.split_first() {
            Some((action, corpus_rest)) => match Flags::parse(corpus_rest, cmd) {
                Ok(flags) => cmd_corpus(action, &flags),
                Err(e) => {
                    eprintln!("error: {e}");
                    exit(2);
                }
            },
            None => Err("corpus needs an action: pack|info".into()),
        }
    } else {
        let flags = match Flags::parse(rest, cmd) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("error: {e}");
                exit(2);
            }
        };
        match cmd.as_str() {
            "generate" => cmd_generate(&flags),
            "train-t2vec" => cmd_train_t2vec(&flags),
            "train" => cmd_train(&flags),
            "search" => cmd_search(&flags),
            "topk" => cmd_topk(&flags),
            "serve" => cmd_serve(&flags),
            "help" | "--help" | "-h" => {
                usage();
                Ok(())
            }
            other => Err(format!("unknown command '{other}'")),
        }
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        exit(1);
    }
}

fn usage() {
    let knobs = Knob::ALL.map(|knob| {
        let fraction = knob.kind() == KnobKind::Fraction;
        let flag = format!("[--{} {}]", knob.flag(), if fraction { "F" } else { "N" });
        format!("{:15}{flag:26}# {}\n", "", knob.help())
    });
    let knobs = knobs.concat();
    eprintln!(
        "simsub <command> [flags]\n\
         commands:\n\
         \x20 generate     --dataset porto|harbin|sports --count N [--seed S] --out FILE.csv\n\
         \x20 corpus       pack --corpus FILE.csv --out FILE.ssb   # packed binary corpus\n\
         \x20 corpus       info (--corpus FILE.csv | --corpus-bin FILE.ssb)\n\
         \x20 train-t2vec  --corpus FILE.csv [--steps N] [--hidden D] --out MODEL.ssub\n\
         \x20 train        --corpus FILE.csv --measure dtw|frechet|t2vec [--t2vec MODEL.ssub]\n\
         \x20              [--episodes N] [--skip K] [--no-suffix] --out POLICY.ssub\n\
         \x20 search       --corpus FILE.csv --data-id ID --query FILE.csv\n\
         \x20              --algo exact|sizes|pss|pos|posd|spring|rls --measure ...\n\
         \x20              [--policy POLICY.ssub] [--t2vec MODEL.ssub]\n\
         \x20 topk         (--corpus FILE.csv | --corpus-bin FILE.ssb) --query FILE.csv --k N\n\
         \x20              --algo ... --measure ... [--index rtree|none]\n\
         \x20 serve        (--corpus FILE.csv | --corpus-bin FILE.ssb) [--addr HOST:PORT]\n\
         \x20              [--workers N] [--policy POLICY.ssub] [--t2vec MODEL.ssub]\n\
         \x20              [--skip K] [--no-suffix]\n\
         {knobs}\
         \x20              [--faults SPEC]           # arm fault injection (chaos testing)\n\
         \x20 admin        <info|stats|metrics|ping|shutdown> [--addr HOST:PORT]\n\
         \x20              # metrics prints Prometheus-style text exposition\n\
         \x20 admin        stats --watch SECS [--count M] [--addr HOST:PORT]\n\
         \x20              # one delta line per tick: qps, p99, hit rate, prune ratio\n\
         \x20 admin        reload (--corpus FILE.csv | --corpus-bin FILE.ssb) [--addr HOST:PORT]\n\
         \x20              [--policy F] [--t2vec F] [--skip K] [--no-suffix]\n\
         \x20 admin        configure [--addr HOST:PORT]   # any of the knob flags above, and\n\
         \x20              [--faults SPEC]   # SPEC like \"slow_scan=p:0.1:5\"; \"off\" disarms"
    );
}

/// The flags `cmd` reads, space-separated: its own plus those of the
/// shared loaders it calls (`load_corpus*`, `load_measure`, `load_algo`,
/// `mdp_from_flags`). `admin` and `corpus` list every action's. `serve`
/// and `admin` also read every [`Knob`]'s flag.
fn accepted_flags(cmd: &str) -> &'static str {
    match cmd {
        "generate" => "dataset count seed out",
        "corpus" => "corpus corpus-bin out",
        "train-t2vec" => "corpus steps hidden seed out",
        "train" => "corpus measure t2vec skip no-suffix episodes max-query-len seed out",
        "search" => "corpus measure t2vec skip no-suffix algo xi delay policy data-id query",
        "topk" => {
            "corpus corpus-bin measure t2vec skip no-suffix algo xi delay policy query k index"
        }
        "serve" => "corpus corpus-bin addr workers policy t2vec skip no-suffix faults",
        "admin" => "addr watch count corpus corpus-bin policy t2vec skip no-suffix faults",
        _ => "",
    }
}

/// Minimal `--key value` / `--switch` parser.
struct Flags {
    values: std::collections::HashMap<String, String>,
    switches: std::collections::HashSet<String>,
}

impl Flags {
    /// Rejects any flag `cmd` does not read ([`accepted_flags`]), so a
    /// typo or a retired flag fails instead of running with a default.
    fn parse(args: &[String], cmd: &str) -> Result<Self, String> {
        let accepted = accepted_flags(cmd);
        let mut values = std::collections::HashMap::new();
        let mut switches = std::collections::HashSet::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let Some(key) = arg.strip_prefix("--") else {
                return Err(format!("expected flag, found '{arg}'"));
            };
            let known = accepted.split_whitespace().any(|name| name == key)
                || (matches!(cmd, "serve" | "admin") && Knob::ALL.iter().any(|k| k.flag() == key));
            if !known {
                return Err(format!("unknown flag --{key} for {cmd}"));
            }
            if i + 1 < args.len() && !args[i + 1].starts_with("--") {
                values.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            } else {
                switches.insert(key.to_string());
                i += 1;
            }
        }
        Ok(Self { values, switches })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
    }

    /// [`Flags::parse_or`] for a count that must be at least 1.
    fn positive(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.parse_or(key, default)? {
            0 => Err(format!("--{key} must be at least 1")),
            n => Ok(n),
        }
    }

    fn switch(&self, key: &str) -> bool {
        self.switches.contains(key)
    }
}

/// Loads the corpus as a columnar arena from `--corpus FILE.csv` or
/// `--corpus-bin FILE.ssb` (a packed binary corpus — one streaming pass +
/// validation, no CSV parse). Exactly one of the two must be given.
fn load_corpus_arena(flags: &Flags) -> Result<CorpusArena, String> {
    match (flags.get("corpus"), flags.get("corpus-bin")) {
        (Some(_), Some(_)) => Err("give either --corpus or --corpus-bin, not both".into()),
        (None, None) => Err("missing --corpus (or --corpus-bin)".into()),
        (Some(csv), None) => {
            let path = PathBuf::from(csv);
            let trajs =
                read_csv_file(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            Ok(CorpusArena::from_trajectories(&trajs))
        }
        (None, Some(bin)) => {
            let path = PathBuf::from(bin);
            read_bin_file(&path).map_err(|e| format!("reading {}: {e}", path.display()))
        }
    }
}

fn load_corpus(flags: &Flags) -> Result<Vec<Trajectory>, String> {
    let path = PathBuf::from(flags.require("corpus")?);
    read_csv_file(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn load_query(flags: &Flags) -> Result<Trajectory, String> {
    let path = PathBuf::from(flags.require("query")?);
    let mut trajs = read_csv_file(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    match trajs.len() {
        1 => Ok(trajs.remove(0)),
        n => Err(format!(
            "query file must contain exactly 1 trajectory, found {n}"
        )),
    }
}

/// Builds the measure named by `--measure`, loading a t2vec model when
/// needed.
fn load_measure(flags: &Flags) -> Result<Box<dyn Measure>, String> {
    match flags.require("measure")? {
        "dtw" => Ok(Box::new(Dtw)),
        "frechet" => Ok(Box::new(Frechet)),
        "t2vec" => {
            let path = PathBuf::from(flags.require("t2vec")?);
            let model =
                T2Vec::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            Ok(Box::new(model))
        }
        other => Err(format!("unknown measure '{other}' (dtw|frechet|t2vec)")),
    }
}

fn mdp_from_flags(flags: &Flags) -> Result<MdpConfig, String> {
    Ok(MdpConfig {
        skip_actions: flags.parse_or("skip", 0usize)?,
        use_suffix: !flags.switch("no-suffix"),
    })
}

fn load_algo(flags: &Flags, mdp: MdpConfig) -> Result<Box<dyn SubtrajSearch>, String> {
    Ok(match flags.require("algo")? {
        "exact" => Box::new(ExactS),
        "sizes" => Box::new(SizeS::new(flags.parse_or("xi", 5usize)?)),
        "pss" => Box::new(Pss),
        "pos" => Box::new(Pos),
        "posd" => Box::new(PosD::new(flags.parse_or("delay", 5usize)?)),
        "spring" => Box::new(Spring::new()),
        "rls" => {
            let path = PathBuf::from(flags.require("policy")?);
            let policy =
                Policy::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
            Box::new(Rls::try_new(policy, mdp).map_err(|e| format!("{}: {e}", path.display()))?)
        }
        other => {
            return Err(format!(
                "unknown algorithm '{other}' (exact|sizes|pss|pos|posd|spring|rls)"
            ))
        }
    })
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let spec = match flags.require("dataset")? {
        "porto" => DatasetSpec::porto(),
        "harbin" => DatasetSpec::harbin(),
        "sports" => DatasetSpec::sports(),
        other => return Err(format!("unknown dataset '{other}'")),
    };
    let count: usize = flags.parse_or("count", 100)?;
    let seed: u64 = flags.parse_or("seed", 0)?;
    let out = PathBuf::from(flags.require("out")?);
    let corpus = generate(&spec, count, seed);
    write_csv_file(&out, &corpus).map_err(|e| format!("writing {}: {e}", out.display()))?;
    let points: usize = corpus.iter().map(Trajectory::len).sum();
    println!(
        "wrote {} trajectories / {} points ({}) to {}",
        corpus.len(),
        points,
        spec.name,
        out.display()
    );
    Ok(())
}

/// `simsub corpus <pack|info>`: converts between CSV and the packed
/// binary corpus format (whose payload is the columnar arena's slabs —
/// see `simsub_data::bin_io`), and inspects either.
fn cmd_corpus(action: &str, flags: &Flags) -> Result<(), String> {
    match action {
        "pack" => {
            let path = PathBuf::from(flags.require("corpus")?);
            let trajs =
                read_csv_file(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
            let arena = CorpusArena::from_trajectories(&trajs);
            let out = PathBuf::from(flags.require("out")?);
            write_bin_file(&out, &arena).map_err(|e| format!("writing {}: {e}", out.display()))?;
            let bytes = std::fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
            println!(
                "packed {} trajectories / {} points into {} ({} bytes; coordinates bit-exact)",
                arena.len(),
                arena.total_points(),
                out.display(),
                bytes
            );
            Ok(())
        }
        "info" => {
            let arena = load_corpus_arena(flags)?;
            println!(
                "{} trajectories, {} points, {} slab bytes (xs+ys+ts), ids {:?}..",
                arena.len(),
                arena.total_points(),
                arena.total_points() * 24,
                arena.ids().iter().take(5).collect::<Vec<_>>()
            );
            Ok(())
        }
        other => Err(format!("unknown corpus action '{other}' (pack|info)")),
    }
}

fn cmd_train_t2vec(flags: &Flags) -> Result<(), String> {
    let corpus = load_corpus(flags)?;
    let cfg = T2VecConfig {
        steps: flags.parse_or("steps", 400)?,
        hidden_dim: flags.parse_or("hidden", 16)?,
        seed: flags.parse_or("seed", 2020)?,
        ..Default::default()
    };
    let out = PathBuf::from(flags.require("out")?);
    println!(
        "training t2vec ({} steps, hidden {})...",
        cfg.steps, cfg.hidden_dim
    );
    let (model, sep) = T2Vec::train(&corpus, &cfg);
    model
        .save(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "saved model ({} dims) to {}; separation diagnostic {:.2}",
        model.embedding_dim(),
        out.display(),
        sep
    );
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let max_q = flags.positive("max-query-len", 25)?;
    let corpus = load_corpus(flags)?;
    let measure = load_measure(flags)?;
    let mdp = mdp_from_flags(flags)?;
    let episodes: usize = flags.parse_or("episodes", 800)?;
    let out = PathBuf::from(flags.require("out")?);

    let queries: Vec<Trajectory> = corpus
        .iter()
        .map(|t| {
            let len = t.len().min(max_q);
            Trajectory::new_unchecked(t.id, t.points()[..len].to_vec())
        })
        .collect();
    println!(
        "training {} for {episodes} episodes...",
        mdp.algorithm_name()
    );
    let mut cfg = RlsTrainConfig::paper(mdp, episodes);
    cfg.seed = flags.parse_or("seed", 2020)?;
    let report = train_rls(measure.as_ref(), &corpus, &queries, &cfg);
    report
        .policy
        .save(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "saved policy to {} ({} transitions, validation score {:.4})",
        out.display(),
        report.transitions,
        report.validation_score
    );
    Ok(())
}

fn cmd_search(flags: &Flags) -> Result<(), String> {
    let corpus = load_corpus(flags)?;
    let measure = load_measure(flags)?;
    let mdp = mdp_from_flags(flags)?;
    let algo = load_algo(flags, mdp)?;
    let data_id: u64 = flags
        .require("data-id")?
        .parse()
        .map_err(|_| "bad --data-id".to_string())?;
    let query = load_query(flags)?;
    let data = corpus
        .iter()
        .find(|t| t.id == data_id)
        .ok_or_else(|| format!("trajectory {data_id} not in corpus"))?;
    let res = algo.search(measure.as_ref(), data.points(), query.points());
    println!(
        "{} over {}: subtrajectory [{}..{}] of trajectory {} — distance {:.6}, similarity {:.6}",
        algo.name(),
        measure.name(),
        res.range.start,
        res.range.end,
        data_id,
        res.distance,
        res.similarity
    );
    Ok(())
}

/// `knob`'s flag, parsed by its kind; `None` when it is not given.
fn knob_flag(flags: &Flags, knob: Knob) -> Result<Option<f64>, String> {
    let Some(text) = flags.get(knob.flag()) else {
        return Ok(None);
    };
    let value = match knob.kind() {
        KnobKind::Fraction => text.parse().ok(),
        KnobKind::Count | KnobKind::PositiveCount => text.parse::<u64>().ok().map(|n| n as f64),
    };
    value
        .map(Some)
        .ok_or_else(|| format!("bad value for --{}: {text}", knob.flag()))
}

/// The engine settings `serve` reads from its flags, checked before any
/// corpus is loaded so a bad value fails fast with a message.
fn engine_config(flags: &Flags) -> Result<EngineConfig, String> {
    let mut config = EngineConfig::default();
    for knob in Knob::ALL {
        if let Some(value) = knob_flag(flags, knob)? {
            knob.check(value)
                .map_err(|rule| format!("--{} {rule}", knob.flag()))?;
            config.knobs[knob] = value;
        }
    }
    // `--faults off` forces disarmed even when SIMSUB_FAULTS is set;
    // no flag defers to the environment hatch.
    config.faults = match flags.get("faults") {
        None => None,
        Some("off") => Some(String::new()),
        Some(spec) => {
            simsub::service::fault::validate_spec(spec).map_err(|e| format!("--faults: {e}"))?;
            Some(spec.to_string())
        }
    };
    config.workers = flags.positive("workers", config.workers)?;
    Ok(config)
}

/// `simsub serve`: load a corpus (plus optional learned models), start the
/// query engine, and answer newline-delimited JSON queries over TCP until
/// a `{"cmd":"shutdown"}` arrives; `simsub admin` drives it live.
fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let config = engine_config(flags)?;
    let corpus = load_corpus_arena(flags)?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878").to_string();

    // Same assembly path the admin `reload` command uses server-side, so
    // a served corpus and a reloaded corpus of the same files can never
    // behave differently.
    let policy_path = flags.get("policy").map(PathBuf::from);
    let t2vec_path = flags.get("t2vec").map(PathBuf::from);
    let mdp = mdp_from_flags(flags)?;
    let snapshot = CorpusSnapshot::assemble_arena(
        corpus,
        policy_path.as_deref().map(|p| (p, mdp)),
        t2vec_path.as_deref(),
    )?;

    let workers = config.workers;
    let (corpus_len, corpus_points) = (snapshot.corpus().len(), snapshot.corpus().total_points());
    let engine = Arc::new(QueryEngine::start(snapshot, config));
    let server =
        Server::bind(Arc::clone(&engine), &addr).map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "serving {} trajectories / {} points on {} with {} workers \
         (newline-JSON, protocol v1+v2; send {{\"cmd\":\"shutdown\"}} to stop)",
        corpus_len,
        corpus_points,
        server.local_addr(),
        workers
    );
    server.wait();
    println!("server stopped");
    Ok(())
}

/// `simsub admin <action>`: a tiny protocol-v2 client for a running
/// `simsub serve`. Builds the command line, sends it with a request id,
/// prints the response verbatim, and fails the process when the server
/// answers `"ok":false`.
fn cmd_admin(action: &str, flags: &Flags) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    if action == "stats" && (flags.get("watch").is_some() || flags.switch("watch")) {
        return cmd_admin_stats_watch(flags);
    }
    let mut fields: Vec<(String, Json)> = Vec::new();
    let mut field = |k: &str, v: Json| fields.push((k.to_string(), v));
    match action {
        "info" | "stats" | "ping" | "shutdown" | "metrics" => {
            field("cmd", Json::Str(action.into()))
        }
        "reload" => {
            field("cmd", Json::Str("reload".into()));
            // Paths are resolved by the *server*; make them absolute so
            // "fresh.csv" means the operator's cwd, not the server's.
            let (key, path) = match (flags.get("corpus"), flags.get("corpus-bin")) {
                (Some(_), Some(_)) => {
                    return Err("give either --corpus or --corpus-bin, not both".into())
                }
                (None, None) => return Err("missing --corpus (or --corpus-bin)".into()),
                (Some(csv), None) => ("corpus", csv),
                (None, Some(bin)) => ("corpus_bin", bin),
            };
            let path = std::fs::canonicalize(path)
                .map_err(|e| format!("resolving {path}: {e}"))?
                .display()
                .to_string();
            field(key, Json::Str(path));
            for key in ["policy", "t2vec"] {
                if let Some(path) = flags.get(key) {
                    let path = std::fs::canonicalize(path)
                        .map_err(|e| format!("resolving {path}: {e}"))?;
                    field(key, Json::Str(path.display().to_string()));
                }
            }
            if let Some(skip) = flags.get("skip") {
                let skip: usize = skip.parse().map_err(|_| "bad value for --skip")?;
                field("skip", Json::Num(skip as f64));
            }
            if flags.switch("no-suffix") {
                field("suffix", Json::Bool(false));
            }
        }
        "configure" => {
            field("cmd", Json::Str("configure".into()));
            // The server checks the ranges.
            for knob in Knob::ALL {
                if let Some(value) = knob_flag(flags, knob)? {
                    field(knob.key(), Json::Num(value));
                }
            }
            if let Some(spec) = flags.get("faults") {
                let spec = if spec == "off" { "" } else { spec };
                field("faults", Json::Str(spec.to_string()));
            }
        }
        other => {
            return Err(format!(
                "unknown admin action '{other}' \
                 (info|stats|metrics|ping|reload|configure|shutdown)"
            ))
        }
    }
    field("v", Json::Num(2.0));
    field(
        "id",
        Json::Str(format!("simsub-admin-{}", std::process::id())),
    );
    let line = Json::Obj(fields).dump();

    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("sending to {addr}: {e}"))?;
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .map_err(|e| format!("reading from {addr}: {e}"))?;
    let response = response.trim();
    if response.is_empty() {
        return Err(format!("{addr} closed the connection without answering"));
    }
    match Json::parse(response) {
        Ok(v) if v.get("ok").and_then(Json::as_bool) == Some(true) => {
            // `metrics` prints the text exposition raw (scrape-ready);
            // everything else prints the response line verbatim.
            match (action, v.get("metrics").and_then(Json::as_str)) {
                ("metrics", Some(text)) => print!("{text}"),
                _ => println!("{response}"),
            }
            Ok(())
        }
        Ok(v) => {
            println!("{response}");
            Err(v
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("server answered ok:false")
                .to_string())
        }
        Err(e) => {
            println!("{response}");
            Err(format!("unparseable response: {e}"))
        }
    }
}

/// `simsub admin stats --watch N`: polls the `stats` command over one
/// persistent connection every `N` seconds and prints a one-line delta
/// per tick — interval qps (from request-count deltas), bucketed p99,
/// cache hit rate, prune ratio, and the live queue/in-flight gauges.
/// `--count M` stops after `M` delta lines (for scripts); default runs
/// until the connection drops or the process is killed.
fn cmd_admin_stats_watch(flags: &Flags) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let secs: f64 = match flags.get("watch") {
        None => 2.0, // bare `--watch`
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("bad value for --watch: {raw}"))?,
    };
    let interval = std::time::Duration::try_from_secs_f64(secs)
        .ok()
        .filter(|d| !d.is_zero())
        .ok_or("--watch must be a positive number of seconds below 1.8e19")?;
    let count: usize = flags.parse_or("count", 0)?; // 0 = run forever
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878");
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let line = Json::Obj(vec![
        ("cmd".into(), Json::Str("stats".into())),
        ("v".into(), Json::Num(2.0)),
        (
            "id".into(),
            Json::Str(format!("simsub-watch-{}", std::process::id())),
        ),
    ])
    .dump();
    let mut prev: Option<(std::time::Instant, f64)> = None;
    let mut printed = 0usize;
    loop {
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| format!("sending to {addr}: {e}"))?;
        let mut response = String::new();
        reader
            .read_line(&mut response)
            .map_err(|e| format!("reading from {addr}: {e}"))?;
        if response.trim().is_empty() {
            return Err(format!("{addr} closed the connection"));
        }
        let parsed =
            Json::parse(response.trim()).map_err(|e| format!("unparseable response: {e}"))?;
        let stats = parsed
            .get("stats")
            .ok_or_else(|| "response carries no \"stats\" object".to_string())?;
        let num = |key: &str| stats.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let now = std::time::Instant::now();
        let requests = num("requests");
        match prev {
            None => println!(
                "watching {addr} every {secs}s (qps = interval request delta; \
                 --count N to stop after N lines)"
            ),
            Some((then, before)) => {
                let dt = now.duration_since(then).as_secs_f64().max(1e-9);
                println!(
                    "qps={:.1} p99_us={} hit_rate={:.3} prune_ratio={:.3} \
                     queue_depth={} inflight={} requests={}",
                    (requests - before).max(0.0) / dt,
                    num("p99_us") as u64,
                    num("hit_rate"),
                    num("prune_ratio"),
                    num("queue_depth") as i64,
                    num("inflight") as i64,
                    requests as u64,
                );
                printed += 1;
                if count > 0 && printed >= count {
                    return Ok(());
                }
            }
        }
        prev = Some((now, requests));
        std::thread::sleep(interval);
    }
}

fn cmd_topk(flags: &Flags) -> Result<(), String> {
    let k = flags.positive("k", 10)?;
    let corpus = load_corpus_arena(flags)?;
    let measure = load_measure(flags)?;
    let mdp = mdp_from_flags(flags)?;
    let algo = load_algo(flags, mdp)?;
    let query = load_query(flags)?;
    let use_index = match flags.get("index").unwrap_or("rtree") {
        "rtree" => true,
        "none" => false,
        other => return Err(format!("unknown index '{other}' (rtree|none)")),
    };
    // An unprunable scan splits its candidates over the process's cores,
    // with the same hits and counters as one thread.
    let db = TrajectoryDb::from_arena(corpus);
    let (hits, stats) = db.top_k_with_stats(
        algo.as_ref(),
        measure.as_ref(),
        query.points(),
        k,
        use_index,
        true,
    );
    let corpus_len = db.len();
    println!(
        "top-{k} by {} over {} ({} trajectories, index={}):",
        algo.name(),
        measure.name(),
        corpus_len,
        if use_index { "rtree" } else { "none" }
    );
    for (rank, hit) in hits.iter().enumerate() {
        println!(
            "  #{:<3} trajectory {:<6} [{}..{}]  distance {:.6}",
            rank + 1,
            hit.trajectory_id,
            hit.result.range.start,
            hit.result.range.end,
            hit.result.distance
        );
    }
    println!(
        "scan: {} scanned, {} pruned (kim {}, mbr {}, points {}), {} searched ({} abandoned: settled below the k-th by the DP) — prune ratio {:.1}%",
        stats.scanned,
        stats.pruned(),
        stats.pruned_by_kim,
        stats.pruned_by_mbr,
        stats.pruned_by_points,
        stats.searched,
        stats.abandoned,
        stats.prune_ratio() * 100.0
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{cmd_admin, cmd_topk, cmd_train, engine_config, Flags};

    fn parse(cmd: &str, line: &str) -> Result<Flags, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        Flags::parse(&args, cmd)
    }

    #[test]
    fn flags_a_command_does_not_read_are_rejected() {
        for (flag, value) in [("io-model", "threads"), ("worker", "4")] {
            match parse("serve", &format!("--corpus c.csv --{flag} {value}")) {
                Ok(_) => panic!("serve accepted --{flag}"),
                Err(e) => assert_eq!(e, format!("unknown flag --{flag} for serve")),
            }
        }
    }

    /// The corpus is always one database: the old layout flags fail on
    /// every command that once read them instead of being ignored.
    #[test]
    fn retired_layout_flags_are_rejected() {
        for cmd in ["serve", "topk", "admin"] {
            for (flag, value) in [("shards", "4"), ("partitioner", "grid")] {
                match parse(cmd, &format!("--corpus c.csv --{flag} {value}")) {
                    Ok(_) => panic!("{cmd} accepted --{flag}"),
                    Err(e) => assert_eq!(e, format!("unknown flag --{flag} for {cmd}")),
                }
            }
        }
    }

    #[test]
    fn retired_batching_flags_are_rejected() {
        // Spelled in pieces so that the retired names appear nowhere else.
        let quant = ["quant", "ize"].concat();
        let no_prune = ["no", "prune"].join("-");
        for (cmd, flag) in [
            ("serve", "batch".to_string()),
            ("serve", "batch-window-us".to_string()),
            ("admin", "batch".to_string()),
            ("serve", ["cache", &quant].join("-")),
            ("admin", quant.clone()),
            ("serve", "reload-fifo".to_string()),
            ("serve", no_prune.clone()),
            ("topk", no_prune.clone()),
            ("admin", "prune".to_string()),
        ] {
            match parse(cmd, &format!("--corpus c.csv --{flag} 4")) {
                Ok(_) => panic!("{cmd} accepted --{flag}"),
                Err(e) => assert_eq!(e, format!("unknown flag --{flag} for {cmd}")),
            }
        }
    }

    /// Every invocation in CI's metrics-exposition smoke block.
    #[test]
    fn ci_smoke_flags_are_accepted() {
        for (cmd, line) in [
            (
                "generate",
                "--dataset porto --count 40 --out /tmp/obs_corpus.csv",
            ),
            (
                "serve",
                "--corpus /tmp/obs_corpus.csv --addr 127.0.0.1:7979 --workers 2 \
                 --cache 512 --default-k 2 --slow-query-us 250000 --audit-sample 0.25 \
                 --max-queue-depth 64 --default-deadline-ms 5000 --faults off",
            ),
            ("admin", "--addr 127.0.0.1:7979"),
            (
                "admin",
                "--cache 256 --default-k 3 --slow-query-us 200000 --audit-sample 0.5 \
                 --max-queue-depth 32 --default-deadline-ms 4000 --addr 127.0.0.1:7979",
            ),
            ("admin", "--default-k 0 --addr 127.0.0.1:7979"),
            ("admin", "--watch 0.2 --count 2 --addr 127.0.0.1:7979"),
            (
                "train",
                "--corpus /tmp/obs_corpus.csv --measure dtw --episodes 2 \
                 --out /tmp/obs_policy.ssub",
            ),
            (
                "admin",
                "--corpus /tmp/obs_corpus.csv --policy /tmp/obs_policy.ssub --skip 3 \
                 --addr 127.0.0.1:7979",
            ),
        ] {
            if let Err(e) = parse(cmd, line) {
                panic!("{cmd} {line}: {e}");
            }
        }
    }

    /// `serve` rejects a bad engine knob with a message before it reads
    /// the corpus, so `missing.csv` is never opened.
    #[test]
    fn bad_engine_knobs_are_errors_not_panics() {
        for (line, needle) in [
            ("--faults nope=n:1", "--faults: unknown fault point 'nope'"),
            ("--audit-sample 1.5", "--audit-sample"),
            ("--workers 0", "--workers"),
            ("--default-k 0", "--default-k"),
        ] {
            let flags = parse("serve", &format!("--corpus missing.csv {line}")).unwrap();
            match engine_config(&flags) {
                Ok(_) => panic!("{line} was accepted"),
                Err(e) => assert!(e.starts_with(needle), "{line}: {e}"),
            }
        }
    }

    /// Inputs that once reached an assertion or a panicking conversion
    /// fail with a message instead, before any file or socket is opened.
    #[test]
    fn bad_command_inputs_are_errors_not_panics() {
        for (cmd, line, needle) in [
            (
                "topk",
                "--corpus missing.csv --k 0",
                "--k must be at least 1",
            ),
            (
                "train",
                "--corpus missing.csv --max-query-len 0",
                "--max-query-len must be at least 1",
            ),
            (
                "admin",
                "--watch 1e300 --addr 127.0.0.1:1",
                "--watch must be",
            ),
        ] {
            let flags = parse(cmd, line).unwrap();
            let result = match cmd {
                "topk" => cmd_topk(&flags),
                "train" => cmd_train(&flags),
                _ => cmd_admin("stats", &flags),
            };
            match result {
                Ok(()) => panic!("{cmd} {line} was accepted"),
                Err(e) => assert!(e.starts_with(needle), "{cmd} {line}: {e}"),
            }
        }
    }

    /// `--faults off` pins the registry disarmed, whatever the
    /// environment says; no flag defers to it.
    #[test]
    fn faults_off_is_an_empty_spec() {
        let flags = parse("serve", "--corpus missing.csv --faults off").unwrap();
        assert_eq!(engine_config(&flags).unwrap().faults.as_deref(), Some(""));
        let flags = parse("serve", "--corpus missing.csv").unwrap();
        assert_eq!(engine_config(&flags).unwrap().faults, None);
    }
}
