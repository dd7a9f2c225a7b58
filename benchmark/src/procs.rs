//! Child daemons and what `/proc` says about them.
//!
//! The serving stack runs as the release binaries, exactly as shipped; the
//! harness only spawns them, talks the wire protocol, and reads `/proc`.

use std::fs::{self, File};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::conn::Conn;
use crate::sys::{pin_to, CpuSplit};
use crate::tape::{Topology, Workload};

/// Shards of every server under test (the reference box has 2 vCPUs).
pub const SHARDS: usize = 2;

/// How long a daemon may take from spawn to its first PONG.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a daemon may take to exit after SHUTDOWN before it is killed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// Where the binaries are, where runs may write, and who runs where.
#[derive(Clone, Debug)]
pub struct Dirs {
    /// Directory holding `p4lru_serverd`, `p4lru_tierd`, `p4lru_routerd`.
    pub bin: PathBuf,
    /// Scratch and output directory (`benchmark/out`).
    pub out: PathBuf,
    /// Which CPUs the daemons get and which the generator keeps.
    pub cpus: CpuSplit,
}

/// A spawned daemon, killed and reaped when dropped.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// The address it listens on.
    pub addr: SocketAddr,
}

/// A loopback port that was free a moment ago.
fn free_addr() -> io::Result<SocketAddr> {
    TcpListener::bind("127.0.0.1:0")?.local_addr()
}

impl Daemon {
    /// Spawns `bin --addr <free port> args…` on the daemons' CPUs with its
    /// output appended to `out/daemons.log`. Does not wait for it to listen. Call from
    /// the main thread: the child inherits the caller's CPU set, which is
    /// switched for the length of the spawn.
    pub fn spawn(dirs: &Dirs, name: &str, args: &[String]) -> io::Result<Self> {
        let addr = free_addr()?;
        let bin = dirs.bin.join(name);
        let out = File::options()
            .create(true)
            .append(true)
            .open(dirs.out.join("daemons.log"))?;
        pin_to(dirs.cpus.servers);
        let child = Command::new(&bin)
            .arg("--addr")
            .arg(addr.to_string())
            .args(args)
            .stdin(Stdio::null())
            .stdout(out.try_clone()?)
            .stderr(out)
            .spawn();
        pin_to(dirs.cpus.generator);
        let child =
            child.map_err(|e| io::Error::new(e.kind(), format!("spawn {}: {e}", bin.display())))?;
        Ok(Self { child, addr })
    }

    /// The process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Blocks until the daemon answers a PING, or fails if it exits or
    /// stays silent for a minute.
    pub fn wait_ready(&mut self) -> io::Result<()> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(mut conn) = Conn::connect(self.addr) {
                if conn.ping().is_ok() {
                    return Ok(());
                }
            }
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "daemon exited before listening: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not answer PING in time",
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// SIGKILL, then reap.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Asks for a clean exit over the wire and reaps the process, killing
    /// it if it does not go in time.
    pub fn shutdown(&mut self) {
        if let Ok(mut conn) = Conn::connect(self.addr) {
            let _ = conn.shutdown();
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                return;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        self.kill();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.kill();
    }
}

/// The daemons of one workload.
#[derive(Debug)]
pub struct Deployment {
    dirs: Dirs,
    server_args: Vec<String>,
    /// The `p4lru_serverd` under test.
    pub server: Daemon,
    /// The `p4lru_tierd` in front of it, for [`Topology::Tier`].
    pub tier: Option<Daemon>,
    /// The durability root, for [`Topology::Durable`].
    pub data_dir: Option<PathBuf>,
}

impl Deployment {
    /// Spawns the workload's daemons and returns them with the time from
    /// the first spawn to the first PONG through the front door.
    /// `server_extra` is appended to the server's flags.
    pub fn start(
        dirs: &Dirs,
        workload: &Workload,
        server_extra: &[&str],
    ) -> io::Result<(Self, Duration)> {
        fs::create_dir_all(&dirs.out)?;
        let mut server_args: Vec<String> = [
            "--shards",
            &SHARDS.to_string(),
            "--frontend",
            "reactor",
            "--io-threads",
            "1",
            "--items",
            &workload.keys.to_string(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        server_args.extend(server_extra.iter().map(|s| s.to_string()));
        let data_dir = (workload.topology == Topology::Durable)
            .then(|| dirs.out.join(format!("data_{}", workload.name)));
        if let Some(dir) = &data_dir {
            if dir.exists() {
                fs::remove_dir_all(dir)?;
            }
            server_args.extend([
                "--data-dir".to_owned(),
                dir.display().to_string(),
                "--sync".to_owned(),
                "always".to_owned(),
            ]);
        }
        let began = Instant::now();
        let mut server = Daemon::spawn(dirs, "p4lru_serverd", &server_args)?;
        server.wait_ready()?;
        let tier = if workload.topology == Topology::Tier {
            let args = [
                "--upstream".to_owned(),
                server.addr.to_string(),
                "--trace-every".to_owned(),
                "0".to_owned(),
            ];
            let mut tier = Daemon::spawn(dirs, "p4lru_tierd", &args)?;
            tier.wait_ready()?;
            Some(tier)
        } else {
            None
        };
        let setup = began.elapsed();
        Ok((
            Self {
                dirs: dirs.clone(),
                server_args,
                server,
                tier,
                data_dir,
            },
            setup,
        ))
    }

    /// Where clients of this workload connect.
    pub fn front(&self) -> SocketAddr {
        self.tier.as_ref().map_or(self.server.addr, |t| t.addr)
    }

    /// Process ids of every server-side child.
    pub fn pids(&self) -> Vec<u32> {
        let mut pids = vec![self.server.pid()];
        pids.extend(self.tier.as_ref().map(Daemon::pid));
        pids
    }

    /// `kill -9` on the server, then a restart on the same data dir.
    /// Returns the time from spawn to first PONG (recovery included).
    pub fn crash_and_restart_server(&mut self) -> io::Result<Duration> {
        self.server.kill();
        let began = Instant::now();
        self.server = Daemon::spawn(&self.dirs, "p4lru_serverd", &self.server_args)?;
        self.server.wait_ready()?;
        Ok(began.elapsed())
    }

    /// Clean shutdown of every daemon; removes the data dir.
    pub fn shutdown(mut self) {
        if let Some(tier) = &mut self.tier {
            tier.shutdown();
        }
        self.server.shutdown();
        self.remove_data_dir();
    }

    /// Immediate teardown (set-up repetitions): SIGKILL, remove the data
    /// dir.
    pub fn discard(mut self) {
        if let Some(tier) = &mut self.tier {
            tier.kill();
        }
        self.server.kill();
        self.remove_data_dir();
    }

    fn remove_data_dir(&self) {
        if let Some(dir) = &self.data_dir {
            let _ = fs::remove_dir_all(dir);
        }
    }
}

fn proc_field(path: &str, key: &str) -> io::Result<u64> {
    let text = fs::read_to_string(path)?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::other(format!("{path}: no {key} field")))
}

/// `utime + stime` of a process (all its threads), in clock ticks.
pub fn cpu_ticks(pid: u32) -> io::Result<u64> {
    let path = format!("/proc/{pid}/stat");
    let text = fs::read_to_string(&path)?;
    // The command name may hold spaces and parentheses; fields are counted
    // from the last ')'. utime and stime are fields 14 and 15 of the line.
    let after = text.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let mut fields = after.split_whitespace().skip(11);
    let mut next = || fields.next().and_then(|v| v.parse::<u64>().ok());
    match (next(), next()) {
        (Some(utime), Some(stime)) => Ok(utime + stime),
        _ => Err(io::Error::other(format!("{path}: unparsable"))),
    }
}

/// CPU ticks summed over `pids`.
pub fn cpu_ticks_of(pids: &[u32]) -> io::Result<u64> {
    pids.iter().map(|&p| cpu_ticks(p)).sum()
}

/// Resident set size of a process, KiB.
pub fn rss_kib(pid: u32) -> io::Result<u64> {
    proc_field(&format!("/proc/{pid}/status"), "VmRSS:")
}

/// Bytes a process has caused to be sent to the storage layer.
pub fn storage_write_bytes(pid: u32) -> io::Result<u64> {
    proc_field(&format!("/proc/{pid}/io"), "write_bytes:")
}

/// The host's `(steal, total)` CPU ticks since boot.
pub fn host_cpu() -> io::Result<(u64, u64)> {
    let text = fs::read_to_string("/proc/stat")?;
    let line = text.lines().next().unwrap_or("");
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    if fields.len() < 8 {
        return Err(io::Error::other("/proc/stat: short cpu line"));
    }
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // the guest columns are already inside user and nice.
    Ok((fields[7], fields[..8].iter().sum()))
}
