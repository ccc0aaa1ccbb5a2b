//! The `repro serve` experiment: throughput of the TCP front door with
//! N *real client processes* hammering one in-process server.
//!
//! This is deliberately not a loopback micro-benchmark inside one
//! process: each client is a spawned `hmm-server bench-client` binary
//! with its own address space, connecting over real sockets, so the
//! measurement includes serialization, kernel round trips, and the
//! per-connection handler threads contending for the shared engine
//! queue — the "millions of users" story at laptop scale.
//!
//! Caveat for this container: with one core, N clients and the server's
//! drainer threads all timeshare a single CPU, so `server_{N}c` rows
//! measure protocol + queue overhead, not parallel speedup (see
//! EXPERIMENTS.md).

use std::process::{Command, Stdio};

use hmm_server::{Server, ServerConfig};

use crate::native_experiments::{json_row_raw, merge_rows_json};
use crate::tables::{size_label, TextTable};

/// One aggregated measurement: N clients × one family × one size.
#[derive(Debug, Clone)]
pub struct ServeRow {
    /// Family name (`random`, `bit-reversal`, …).
    pub family: &'static str,
    /// Elements per payload.
    pub n: usize,
    /// Client processes.
    pub clients: usize,
    /// Timed permutes per client.
    pub reps: usize,
    /// Wall-clock of the slowest client (the makespan).
    pub seconds: f64,
    /// Aggregate elements/sec: `clients × reps × n / seconds`.
    pub eps: f64,
}

/// The families the serve bench drives: one build-heavy, one
/// structured — the two registration regimes.
const FAMILIES: [&str; 2] = ["random", "bit-reversal"];

/// Locate the `hmm-server` binary next to the running `repro` binary
/// (both live in the same cargo target directory).
fn server_binary() -> Result<std::path::PathBuf, Box<dyn std::error::Error>> {
    let me = std::env::current_exe()?;
    let dir = me.parent().ok_or("repro binary has no parent dir")?;
    let candidate = dir.join("hmm-server");
    if candidate.exists() {
        return Ok(candidate);
    }
    Err(format!(
        "hmm-server binary not found at {} — build it first: cargo build --release -p hmm-server",
        candidate.display()
    )
    .into())
}

/// Run the serve experiment: one server, `clients` spawned
/// `bench-client` processes per (family, size) cell.
pub fn serve(
    clients: usize,
    sizes: &[usize],
    reps: usize,
) -> Result<Vec<ServeRow>, Box<dyn std::error::Error>> {
    let bin = server_binary()?;
    let server = Server::bind("127.0.0.1:0", ServerConfig::default())?;
    let addr = server.local_addr().to_string();

    let mut rows = Vec::new();
    for &n in sizes {
        for family in FAMILIES {
            let mut children = Vec::with_capacity(clients);
            for _ in 0..clients {
                children.push(
                    Command::new(&bin)
                        .args([
                            "bench-client",
                            "--addr",
                            &addr,
                            "--n",
                            &n.to_string(),
                            "--family",
                            family,
                            "--seed",
                            // Same seed for every client: they share one
                            // cached plan, which is the service model
                            // (the cache is the asset). The seed still
                            // varies per size for coverage.
                            &(0xc0ffee ^ n as u64).to_string(),
                            "--reps",
                            &reps.to_string(),
                        ])
                        .stdout(Stdio::piped())
                        .stderr(Stdio::inherit())
                        .spawn()?,
                );
            }
            let mut makespan = 0.0f64;
            let mut total_reps = 0usize;
            for child in children {
                let out = child.wait_with_output()?;
                if !out.status.success() {
                    return Err(format!(
                        "bench-client exited with {} for family={family} n={n}",
                        out.status
                    )
                    .into());
                }
                let line = String::from_utf8_lossy(&out.stdout);
                let (secs, client_reps) = parse_client_line(&line)
                    .ok_or_else(|| format!("unparseable bench-client output: {line:?}"))?;
                makespan = makespan.max(secs);
                total_reps += client_reps;
            }
            let eps = (total_reps * n) as f64 / makespan.max(1e-12);
            rows.push(ServeRow {
                family,
                n,
                clients,
                reps,
                seconds: makespan,
                eps,
            });
        }
    }
    server.drain();
    Ok(rows)
}

/// Parse `CLIENT <family> <n> <reps> <seconds> <eps>`.
fn parse_client_line(line: &str) -> Option<(f64, usize)> {
    let mut fields = line.split_whitespace();
    if fields.next()? != "CLIENT" {
        return None;
    }
    let _family = fields.next()?;
    let _n = fields.next()?;
    let reps: usize = fields.next()?.parse().ok()?;
    let seconds: f64 = fields.next()?.parse().ok()?;
    Some((seconds, reps))
}

/// Render the serve rows as a text table.
pub fn render_serve(rows: &[ServeRow]) -> String {
    let mut t = TextTable::new(vec!["family", "n", "clients", "makespan", "Melem/s"]);
    for r in rows {
        t.row(vec![
            r.family.to_string(),
            size_label(r.n),
            r.clients.to_string(),
            format!("{:.3}s", r.seconds),
            format!("{:.1}", r.eps / 1e6),
        ]);
    }
    t.render()
}

/// Merge `server_{N}c` rows into an existing `BENCH_native.json`
/// document, replacing stale `server_*` rows and leaving every other
/// row untouched (same contract as
/// [`merge_backends_json`](crate::native_experiments::merge_backends_json)).
pub fn merge_serve_json(existing: Option<&str>, rows: &[ServeRow]) -> String {
    let new_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut s = String::new();
            let backend = format!("server_{}c", r.clients);
            json_row_raw(&mut s, r.family, r.n, &backend, r.seconds, r.eps);
            s
        })
        .collect();
    merge_rows_json(existing, "\"backend\": \"server_", new_rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_line_parses() {
        assert_eq!(
            parse_client_line("CLIENT random 65536 8 0.123456 4244897.1\n"),
            Some((0.123456, 8))
        );
        assert_eq!(parse_client_line("LISTENING 127.0.0.1:1"), None);
    }

    #[test]
    fn merge_replaces_only_server_rows() {
        let existing = "{\n  \"bench\": \"native\",\n  \"threads\": 2,\n  \"reps\": 5,\n  \"rows\": [\n    {\"family\": \"random\", \"n\": 1024, \"backend\": \"scatter\", \"seconds\": 0.1, \"elements_per_sec\": 10240.0},\n    {\"family\": \"random\", \"n\": 1024, \"backend\": \"server_2c\", \"seconds\": 0.5, \"elements_per_sec\": 2048.0}\n  ]\n}\n";
        let rows = vec![ServeRow {
            family: "random",
            n: 2048,
            clients: 4,
            reps: 8,
            seconds: 0.25,
            eps: 8192.0,
        }];
        let merged = merge_serve_json(Some(existing), &rows);
        assert!(merged.contains("\"backend\": \"scatter\""), "{merged}");
        assert!(merged.contains("\"backend\": \"server_4c\""), "{merged}");
        assert!(!merged.contains("server_2c"), "{merged}");
        assert!(merged.contains("\"threads\": 2"), "{merged}");
    }
}
