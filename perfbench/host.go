package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// cpuTicks reads the machine's aggregate CPU time counters from
// /proc/stat (user, nice, system, idle, iowait, irq, softirq, steal);
// nil when unavailable.
func cpuTicks() []float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return nil
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return nil
	}
	var t []float64
	for _, x := range f[1:9] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return nil
		}
		t = append(t, v)
	}
	return t
}

// stealPct is the share of CPU time the hypervisor took from this
// machine between two cpuTicks readings: a noisy neighbour shows here.
func stealPct(a, b []float64) float64 {
	if a == nil || b == nil {
		return -1
	}
	var total float64
	for i := range a {
		total += b[i] - a[i]
	}
	if total <= 0 {
		return -1
	}
	return 100 * (b[7] - a[7]) / total
}

// l2Size reads the per-core L2 cache size from sysfs.
func l2Size() string {
	data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index2/size")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

// fsType names the file system holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
