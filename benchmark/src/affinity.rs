//! CPU placement: the client on one CPU, the serving child on another.
//!
//! Left to the scheduler on a 2-CPU box, the client, the event loop's
//! spin and the worker chain land in placements that last a whole
//! round and differ by 30–60 % in latency (README, noise section).
//! Giving the load generator and the server a CPU each removes the
//! placements, not the work.
//!
//! The standard library has no affinity call; these are the two libc
//! functions it already links.

use std::sync::OnceLock;

const WORDS: usize = 16;
type CpuSet = [u64; WORDS];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending (empty if the
/// kernel will not say).
fn allowed() -> Vec<usize> {
    let mut set: CpuSet = [0; WORDS];
    // SAFETY: `set` is a live, writable buffer of exactly the size
    // passed; pid 0 is the calling thread; the call writes nothing
    // beyond `size` bytes.
    let status = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
    if status != 0 {
        return Vec::new();
    }
    (0..WORDS * 64)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread — and every thread or process it
/// starts afterwards — to `cpu`. Returns whether the kernel agreed.
pub fn pin(cpu: usize) -> bool {
    let mut set: CpuSet = [0; WORDS];
    let Some(word) = set.get_mut(cpu / 64) else {
        return false;
    };
    *word = 1 << (cpu % 64);
    // SAFETY: `set` is a live buffer of exactly the size passed, only
    // read by the call; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set.as_ptr()) == 0 }
}

/// Where the two sides go: the client on the first allowed CPU, the
/// server on the last. With a single CPU they share it (`None`: no
/// pinning, nothing to separate). Decided once, from the CPUs the
/// process was started with — `dashbench run` measures one workload
/// after another, and a thread already pinned for the first sees only
/// its own CPU.
pub fn placement() -> Option<(usize, usize)> {
    static PLACEMENT: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *PLACEMENT.get_or_init(|| {
        let cpus = allowed();
        match (cpus.first(), cpus.last()) {
            (Some(&client), Some(&server)) if client != server => Some((client, server)),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_narrows_the_allowed_set_to_one_cpu() {
        // On its own thread: the pin must not leak into other tests.
        std::thread::spawn(|| {
            let before = allowed();
            assert!(!before.is_empty());
            let target = *before.last().unwrap();
            let decided = placement();
            assert!(pin(target));
            assert_eq!(allowed(), vec![target]);
            // The placement was decided before the pin and stays.
            assert_eq!(placement(), decided);
            assert!(!pin(WORDS * 64));
        })
        .join()
        .unwrap();
    }
}
