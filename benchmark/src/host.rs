//! The host block every results file carries, so nobody reads a number
//! without knowing the machine, the threads and the build behind it.

use std::fs;
use std::process::Command;

use crate::json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn cpu_model() -> Option<String> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split(':').nth(1)?.trim().to_string())
}

/// Size of the last-level cache, from sysfs (`"260M"`-style strings).
fn llc_bytes() -> Option<i64> {
    let mut best: Option<(u32, i64)> = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(level) = fs::read_to_string(format!("{dir}/level")) else { break };
        let size = fs::read_to_string(format!("{dir}/size")).ok()?;
        let size = size.trim();
        let (digits, unit) =
            size.split_at(size.find(|c: char| !c.is_ascii_digit()).unwrap_or(size.len()));
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        let entry = (level.trim().parse().ok()?, digits.parse::<i64>().ok()? * scale);
        if best.is_none_or(|b| entry.0 > b.0) {
            best = Some(entry);
        }
    }
    best.map(|(_, bytes)| bytes)
}

/// `HEAD` of the repository the benchmark was run from, and whether the
/// tree had uncommitted changes; `None` outside a git checkout.
fn commit() -> Option<(String, bool)> {
    let git = |args: &[&str]| {
        let out =
            Command::new("git").args(args).current_dir(env!("CARGO_MANIFEST_DIR")).output().ok()?;
        out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    let head = git(&["rev-parse", "HEAD"])?;
    let dirty = git(&["status", "--porcelain"]).is_none_or(|s| !s.is_empty());
    Some((head, dirty))
}

pub fn block(pool_threads: usize) -> Json {
    let (head, dirty) = commit().unwrap_or(("unknown".to_string(), true));
    Json::obj([
        ("nproc", Json::Int(nproc() as i64)),
        ("pool_threads", Json::Int(pool_threads as i64)),
        ("cpu_model", cpu_model().map_or(Json::Null, Json::Str)),
        ("llc_bytes", llc_bytes().map_or(Json::Null, Json::Int)),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
        ("build_profile", Json::str(build_profile())),
        ("commit", Json::Str(head)),
        ("uncommitted_changes", Json::Bool(dirty)),
    ])
}
