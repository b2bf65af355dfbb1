"""Peak resident memory of the calling process."""


def peak_rss_mb() -> float:
    """This process's own peak resident memory (VmHWM) in MB.  Unlike the
    ru_maxrss a parent gets from wait4, it leaves out the parent's peak,
    which a child started by vfork inherits at exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")
