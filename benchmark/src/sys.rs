//! What the benchmark needs from the operating system: CPU placement,
//! CPU-time clocks, resident memory and a description of the host.
//!
//! This is the only module with `unsafe`: three libc calls the
//! standard library does not expose. Linux only, like the `/proc`
//! reads beside them.

use std::io;

/// `cpu_set_t`: 1024 CPUs as sixteen 64-bit words.
type CpuSet = [u64; 16];

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024).filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1).collect())
}

/// Restricts the calling thread to `cpus`. Threads it spawns afterwards
/// inherit the restriction; threads already running are not touched.
pub fn set_allowed_cpus(cpus: &[usize]) -> io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        if cpu >= 1024 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "cpu index past 1023"));
        }
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `set` is a live `cpu_set_t`-sized buffer, only read by the
    // call; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Restricts the calling thread to the highest-numbered CPU it is
/// allowed on (CPU 0 takes most interrupts) and returns that CPU.
pub fn pin_to_last_cpu() -> io::Result<usize> {
    let cpu = *allowed_cpus()?.last().expect("a running thread is allowed on some CPU");
    set_allowed_cpus(&[cpu]).map(|()| cpu)
}

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec`; both clock ids are
    // constants every Linux kernel since 2.6.12 serves.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed: {}", io::Error::last_os_error());
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of the whole process, every thread that ever
/// ran in it included, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Resident set size of the process in bytes (`VmRSS`).
pub fn resident_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: u64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line in /proc/self/status");
    kib * 1024
}

/// `model name` of the first CPU in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit of the checkout the benchmark runs in, or why there is
/// none (the driver's checkout is not a git repository).
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}
