//! The libc calls the standard library does not wrap: `ppoll`, for a socket
//! wait with a sub-millisecond deadline (`SO_RCVTIMEO` rounds to scheduler
//! ticks, which would make every open-loop send late); `prctl`, to drop the
//! 50 µs timer slack the kernel otherwise adds to that deadline;
//! `sched_{get,set}affinity`, to keep the generator off the daemons' CPUs;
//! and `sysconf`, for the unit of `/proc/<pid>/stat` CPU times.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const SC_CLK_TCK: i32 = 2;
const PR_SET_TIMERSLACK: i32 = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn sysconf(name: i32) -> i64;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Lets the calling thread's timed waits expire on time instead of up to
/// 50 µs late (the default timer slack). Best effort.
pub fn precise_timers() {
    // SAFETY: `PR_SET_TIMERSLACK` takes an integer and touches no memory.
    unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Confines the calling thread — and every thread or process it spawns
/// from now on — to the CPUs whose bits are set in `mask`. Best effort.
pub fn pin_to(mask: u64) {
    // SAFETY: `mask` is a live 8-byte bitmap and the size passed is its
    // size; pid 0 means the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// How the CPUs this process may use are split between the daemons under
/// test and the generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSplit {
    /// Bitmap of the CPUs the daemons run on.
    pub servers: u64,
    /// Bitmap of the CPUs the generator runs on.
    pub generator: u64,
}

impl CpuSplit {
    /// Splits the CPUs in `allowed` (a bitmap): the highest one for the
    /// generator, the rest for the daemons. With a single CPU both share it.
    pub fn of(allowed: u64) -> Self {
        if allowed.count_ones() < 2 {
            return Self {
                servers: allowed,
                generator: allowed,
            };
        }
        let generator = 1 << (63 - allowed.leading_zeros());
        Self {
            servers: allowed & !generator,
            generator,
        }
    }

    /// The split of the CPUs the calling thread may run on now (of the
    /// first 64; any CPU when the kernel will not say).
    pub fn detect() -> Self {
        let mut allowed = 0u64;
        // SAFETY: `allowed` is a live 8-byte bitmap and the size passed is
        // its size; pid 0 means the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<u64>(), &mut allowed) };
        Self::of(if rc < 0 || allowed == 0 {
            u64::MAX
        } else {
            allowed
        })
    }
}

/// What a socket wait found.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ready {
    /// Bytes (or EOF, or an error) can be read.
    pub readable: bool,
    /// Bytes can be written.
    pub writable: bool,
}

/// Waits until `fd` is readable (and, with `want_write`, writable) or
/// `timeout` passes, with nanosecond timer resolution.
pub fn wait(fd: RawFd, want_write: bool, timeout: Duration) -> io::Result<Ready> {
    let mut pfd = PollFd {
        fd,
        events: if want_write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, properly laid-out (`repr(C)`,
    // matching Linux x86-64/aarch64 `struct pollfd` / `struct timespec`)
    // locals for the whole call, `nfds` is 1, and a null signal mask is
    // allowed.
    let n = unsafe { ppoll(&mut pfd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(Ready::default());
        }
        return Err(e);
    }
    Ok(Ready {
        // Errors and hang-ups surface through the read that follows.
        readable: pfd.revents & !POLLOUT != 0,
        writable: pfd.revents & POLLOUT != 0,
    })
}

/// Clock ticks per second, the unit of `utime`/`stime` in `/proc`.
pub fn clock_ticks_per_sec() -> u64 {
    // SAFETY: `sysconf` takes an integer and touches no memory of ours.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as u64
    } else {
        100
    }
}
