package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// The benchmark host is a shared VM: the hypervisor runs other guests
// on its cores and, for 10-30% of the time and varying minute to
// minute, does not run this one ("steal" in /proc/stat). Wall-clock
// throughput follows that steal share rather than the program, so
// throughput is counted per host second the VM actually ran: elapsed
// wall time times one minus the steal share measured over the same
// interval. The program's own waiting — locks, idle clients — is not
// steal and still counts.

// stealClock snapshots the VM-wide jiffy counters.
type stealClock struct {
	steal, total int64
	at           time.Time
}

func readSteal() stealClock {
	c := stealClock{at: time.Now()}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return c // no /proc/stat: count plain wall time
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, s := range strings.Fields(line)[1:] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		c.total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			c.steal = v
		}
	}
	return c
}

// hostSeconds returns the wall time since c, less the share of it the
// hypervisor stole from the VM.
func (c stealClock) hostSeconds() float64 {
	now := readSteal()
	wall := now.at.Sub(c.at).Seconds()
	if d := now.total - c.total; d > 0 {
		return wall * (1 - float64(now.steal-c.steal)/float64(d))
	}
	return wall
}
