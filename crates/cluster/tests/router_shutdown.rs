//! `p4lru_routerd` must exit on SHUTDOWN even while other client
//! connections sit idle: `main` joins every connection thread, so a thread
//! parked in a read with no timeout used to keep the process alive until
//! the idle client went away.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use p4lru_server::client::Client;

#[test]
fn shutdown_exits_while_another_connection_is_idle() {
    // A node that accepts connections into its backlog and never answers:
    // with probing off, the router needs nothing more of it for this.
    let node = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut router = Command::new(env!("CARGO_BIN_EXE_p4lru_routerd"))
        .args(["--addr", "127.0.0.1:0", "--probe-fails", "0", "--cluster"])
        .arg(node.local_addr().unwrap().to_string())
        .stdout(Stdio::piped())
        .spawn()
        .expect("routerd spawns");
    let mut lines = BufReader::new(router.stdout.take().expect("stdout is piped"))
        .lines()
        .map(|line| line.expect("routerd stdout is readable"));
    let banner = lines
        .find(|line| line.contains("listening on "))
        .expect("routerd printed its listen banner");
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split_whitespace().next())
        .expect("address after 'listening on'")
        .to_owned();

    // One connection that has proven it is being served, then goes quiet.
    let mut idle = Client::connect(&addr).unwrap();
    idle.ping().unwrap();

    Client::connect(&addr).unwrap().shutdown().unwrap();
    let asked = Instant::now();
    while router.try_wait().unwrap().is_none() && asked.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(20));
    }
    let exited = router.try_wait().unwrap();
    if exited.is_none() {
        let _ = router.kill();
        let _ = router.wait();
    }
    let status = exited.expect("routerd still running 2 s after SHUTDOWN with one idle connection");
    assert!(status.success(), "routerd exited with {status}");
    drop(idle);
}
