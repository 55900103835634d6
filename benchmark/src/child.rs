//! Building `llmms` from the checkout and running `llmms serve` as a child.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Where everything the benchmark writes goes (git-ignored).
pub const OUT_DIR: &str = "benchmark/out";

/// Build the `llmms` binary of the checkout in the current directory and
/// return its path. A no-op when the build is fresh.
///
/// The build runs in the root workspace (root profile and lock file), into
/// `CARGO_TARGET_DIR` when the caller set one.
pub fn build_llmms() -> Result<PathBuf, String> {
    if !Path::new("crates/llmms/Cargo.toml").exists() {
        return Err("run from the root of an llmms checkout (crates/llmms not found)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "llmms", "--bin", "llmms"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building llmms failed: {status}"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    let bin = target.join("release").join("llmms");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("built llmms but {} does not exist", bin.display()))
    }
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A live `llmms serve` child. Dropping it kills the child, waits for it and
/// removes its persist directory, so every exit path of the benchmark —
/// return, `?`, panic — leaves nothing behind.
pub struct Server {
    child: Child,
    /// Kept open: the child's later `println!`s must not hit a closed pipe.
    _stdout: ChildStdout,
    pub addr: SocketAddr,
    persist: Option<PathBuf>,
}

impl Server {
    /// Start `llmms serve` on an ephemeral port and wait until it has
    /// printed its address. `persist` makes the vector store durable there.
    ///
    /// Admission is opened wide: the default quota of 100 queries/s per
    /// tenant would answer 429 at the benchmark's rates.
    pub fn spawn(bin: &Path, persist: Option<PathBuf>) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--tenant-quota", "1000000:1000000:1024"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(dir) = &persist {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            cmd.arg("--persist").arg(dir);
        }
        // SAFETY: `prctl(PR_SET_PDEATHSIG, ..)` is async-signal-safe and
        // touches only the calling (forked, not yet exec'd) process. It makes
        // the kernel kill the child if the benchmark dies without running
        // `Drop` (SIGKILL from a driver timeout), so no server outlives it.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut addr = None;
        let mut line = String::new();
        while addr.is_none() {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    if let Some(rest) = line.trim().strip_prefix("llmms serving on http://") {
                        addr = rest.parse().ok();
                    }
                }
                _ => break,
            }
        }
        let mut server = Server {
            child,
            _stdout: stdout.into_inner(),
            // Replaced just below; a placeholder keeps `Drop` in charge of
            // the child on the error path too.
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            persist,
        };
        match addr {
            Some(addr) => {
                server.addr = addr;
                Ok(server)
            }
            None => Err("llmms serve exited before printing its address".into()),
        }
    }

    /// CPU time the child has used so far (user + system), in milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        proc_cpu_ms(&format!("/proc/{}/stat", self.child.id()))
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        proc_peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(dir) = &self.persist {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// utime + stime of a `/proc/<pid>/stat` file, in milliseconds. Linux reports
/// both in clock ticks of 1/100 s (`getconf CLK_TCK`) on every supported
/// platform.
pub fn proc_cpu_ms(stat_path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(stat_path) else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

pub fn proc_peak_rss_mb(status_path: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string(status_path) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(steal, total)` jiffies of the whole machine from `/proc/stat`.
pub fn machine_jiffies() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0.0, 0.0);
    };
    let fields: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already inside user time.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0.0), total)
}

/// A fresh directory under [`OUT_DIR`] for one server's durable store.
pub fn persist_dir(tag: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("persist-{}-{tag}", std::process::id()))
}
