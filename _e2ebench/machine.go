package main

import (
	"io/fs"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// machine records where a result was measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// StateFS is the filesystem under the state directories; only the
	// paging workload writes there.
	StateFS string `json:"state_fs"`
}

func machineInfo(stateRoot string) machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		StateFS:    fsType(stateRoot),
	}
}

// fsType names the filesystem holding path, from its statfs magic number.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x65735546:
		return "fuse"
	case 0x2FC12FC1:
		return "zfs"
	}
	return "unknown"
}

// dirUsage walks a directory and returns its regular files' total size and
// count.
func dirUsage(dir string) (bytes int64, files int64) {
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return nil // a vanished entry only shrinks the count
		}
		if info, err := d.Info(); err == nil {
			bytes += info.Size()
			files++
		}
		return nil
	})
	return bytes, files
}

// quantile returns the q-quantile (0 < q <= 1) of samples by nearest rank.
// It sorts samples in place.
func quantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	i := int(math.Ceil(q*float64(len(samples)))) - 1
	return samples[max(0, min(i, len(samples)-1))]
}

func mean(samples []int64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s int64
	for _, v := range samples {
		s += v
	}
	return float64(s) / float64(len(samples))
}
