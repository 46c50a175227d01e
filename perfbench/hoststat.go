package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// cpuTimes is the machine's CPU time so far in clock ticks, summed over its
// CPUs, from the first line of /proc/stat: total is all of it, idle is the
// part no task wanted (idle and iowait), and steal is the part a hypervisor
// gave to other guests while this machine's CPUs wanted to run.
type cpuTimes struct{ total, idle, steal int64 }

// readCPUTimes reads /proc/stat. Where it is unreadable, or has no steal
// column, it returns zeros, and no host time is taken as stolen.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return cpuTimes{}
	}
	var v [8]int64
	for i := range v {
		if v[i], err = strconv.ParseInt(string(f[i+1]), 10, 64); err != nil {
			return cpuTimes{}
		}
	}
	// user nice system idle iowait irq softirq steal
	var total int64
	for _, x := range v {
		total += x
	}
	return cpuTimes{total: total, idle: v[3] + v[4], steal: v[7]}
}

// machineStolen returns the share of all the machine's CPU time between a
// and b that the hypervisor gave to other guests. It is what work spread
// over the machine's CPUs loses: the Go scheduler moves runnable goroutines
// off a stolen CPU onto an idle one.
func machineStolen(a, b cpuTimes) float64 {
	return share(b.steal-a.steal, b.total-a.total)
}

// demandStolen returns the share of the CPU time the machine wanted between
// a and b (busy or stolen) that the hypervisor gave to other guests. It is
// what one goroutine that runs throughout loses: its CPU is the one that
// wants to run, and nothing can take its work over.
func demandStolen(a, b cpuTimes) float64 {
	return share(b.steal-a.steal, (b.total-a.total)-(b.idle-a.idle))
}

func share(part, whole int64) float64 {
	if part <= 0 || whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// hostInterval is a measured stretch of wall time and the share of it the
// hypervisor stole.
type hostInterval struct {
	wall   time.Duration
	stolen float64
}

// runSeconds is the time the host ran during the stretch: its wall time
// less the stolen share.
func (h hostInterval) runSeconds() float64 { return h.wall.Seconds() * (1 - h.stolen) }
