//! Thread placement on Linux (`sched_getaffinity` / `sched_setaffinity`);
//! elsewhere there is nothing to place and both calls do nothing.

/// `cpu_set_t`: a 1024-bit mask.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order; empty
/// when they cannot be read.
#[cfg(target_os = "linux")]
pub fn allowed() -> Vec<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a valid, writable `cpu_set_t` of the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Run the calling thread on `cpu` only, which must be one `allowed()`
/// returned. Best effort: a failure leaves the thread where it was.
#[cfg(target_os = "linux")]
pub fn pin(cpu: usize) {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) };
}

#[cfg(not(target_os = "linux"))]
pub fn allowed() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpu: usize) {}
