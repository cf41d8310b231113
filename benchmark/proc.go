//go:build linux

package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// userHz is the kernel's USER_HZ: the unit of the utime/stime fields of
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const userHz = 100

// procCPU is a process's consumed CPU time, split as the kernel accounts it.
type procCPU struct {
	user, sys time.Duration
}

func (c procCPU) total() time.Duration { return c.user + c.sys }

// parseProcStat extracts utime and stime (fields 14 and 15) from the
// contents of /proc/<pid>/stat. The second field, the command name, is
// parenthesized and may itself contain spaces and parentheses, so fields
// are counted from the last ')'.
func parseProcStat(data []byte) (procCPU, error) {
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return procCPU{}, fmt.Errorf("proc stat: no command field in %q", data)
	}
	fields := strings.Fields(string(data[i+1:]))
	// fields[0] is field 3 (state), so utime and stime sit at 11 and 12.
	if len(fields) < 13 {
		return procCPU{}, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	ticks := func(s string) (time.Duration, error) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: %w", err)
		}
		return time.Duration(n) * time.Second / userHz, nil
	}
	user, err := ticks(fields[11])
	if err != nil {
		return procCPU{}, err
	}
	sys, err := ticks(fields[12])
	if err != nil {
		return procCPU{}, err
	}
	return procCPU{user: user, sys: sys}, nil
}

// parseVmHWM extracts the peak resident set size, in bytes, from the
// contents of /proc/<pid>/status.
func parseVmHWM(data []byte) (int64, error) {
	for _, line := range strings.Split(string(data), "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

func readProcCPU(pid int) (procCPU, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procCPU{}, err
	}
	return parseProcStat(data)
}

func readVmHWM(pid int) (int64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(data)
}

// selfCPU is this process's own consumed CPU time (the load generator's).
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
