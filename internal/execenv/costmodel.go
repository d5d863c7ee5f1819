// Package execenv models the execution environments an NF can run in — a
// KVM/QEMU virtual machine, a Docker container, a DPDK userspace process, or
// a native process — and prices the packet work done in each on a virtual
// clock.
//
// The paper's Table 1 measures the same strongSwan IPsec endpoint in three
// flavors on real hardware. This package substitutes that testbed with a
// calibrated analytical model (see README, "Paper evaluation: Table 1,
// ablations, cost model"): the *mechanisms* the paper names (the additional
// virtualization layer; IPsec executing in user space inside the hypervisor
// process; Docker and native both processing packets in the host kernel)
// are represented as explicit cost terms, so the reproduction shows the
// paper's ordering because the mechanisms are modeled, not because the
// numbers are hard-coded.
//
// The model observes: nothing here sleeps, copies or runs on the packet
// path. Instances count their work (Meter); the clock prices it on read.
package execenv

import "time"

// Flavor selects an execution environment technology.
type Flavor string

// Execution environment flavors.
const (
	FlavorVM     Flavor = "vm"
	FlavorDocker Flavor = "docker"
	FlavorNative Flavor = "native"
	FlavorDPDK   Flavor = "dpdk"
)

// Valid reports whether f is a known flavor.
func (f Flavor) Valid() bool {
	switch f {
	case FlavorVM, FlavorDocker, FlavorNative, FlavorDPDK:
		return true
	}
	return false
}

// MB is one mebibyte in bytes.
const MB = 1 << 20

// CostModel holds the calibrated cost constants. All packet-path terms are
// nanoseconds of simulated time.
//
// Calibration (README, "Paper evaluation: Table 1, ablations, cost model"):
// Table 1 reports 1095/1094 Mbps for the kernel-path flavors and 796 Mbps
// for the VM at 1500-byte frames, i.e.
// 10.97 µs/pkt kernel path and 15.08 µs/pkt VM path (goodput over the
// 1500-byte inner frame). ESP crypto covers the inner IP packet (1486 B of
// an MTU frame); at 6 ns/B that is 8.92 µs, leaving 2.05 µs of host kernel
// stack, and the VM tax decomposes into the terms below totalling
// 4.11 µs/pkt. Docker's extra veth hop (40 ns) is below the paper's own
// noise (its Docker row is 1 Mbps ABOVE native).
type CostModel struct {
	// KernelPathNs is the host kernel network stack traversal per packet
	// (native and Docker NFs process packets here; so does the host side
	// of a VM's tap).
	KernelPathNs int64
	// NamespaceVethNs is the extra veth pair hop into a container's
	// network namespace.
	NamespaceVethNs int64
	// VMExitNs is the amortized vmexit/vmentry cost per packet
	// (interrupt + notification suppression considered).
	VMExitNs int64
	// VirtioCopyPerByteNs is the per-byte cost of one virtio ring copy;
	// a packet pays it twice (host->guest, guest->host).
	VirtioCopyPerByteNs float64
	// ContextSwitchNs is a guest scheduler context switch; the
	// user-space IPsec process pays two per packet.
	ContextSwitchNs int64
	// UserSpaceCrossNs is one kernel/user boundary crossing inside the
	// guest (the paper: "IPsec functionalities executing in user space").
	UserSpaceCrossNs int64
	// DPDKPollPathNs is the userspace poll-mode path per packet,
	// bypassing the kernel entirely.
	DPDKPollPathNs int64
	// CryptoPerByteNs is AES-GCM cost per payload byte in the host
	// kernel (AES-NI class hardware).
	CryptoPerByteNs float64
	// CryptoUserFactor scales crypto cost for user-space execution
	// inside a guest (same silicon, so ~1.0; kept as an explicit knob).
	CryptoUserFactor float64

	// Startup latencies per flavor.
	VMBootTime  time.Duration
	DockerStart time.Duration
	NativeStart time.Duration
	DPDKStart   time.Duration

	// Runtime RAM base footprints per flavor (Table 1 "RAM" column is
	// base + workload): the VM carries a whole guest OS plus hypervisor
	// heap; Docker carries the runtime's per-container slice; native
	// carries nothing beyond the workload process.
	VMBaseRAM     uint64
	DockerBaseRAM uint64
	NativeBaseRAM uint64
	DPDKBaseRAM   uint64
}

// Default returns the cost model calibrated against Table 1.
func Default() CostModel {
	return CostModel{
		KernelPathNs:        2053,
		NamespaceVethNs:     40,
		VMExitNs:            1056,
		VirtioCopyPerByteNs: 0.75,
		ContextSwitchNs:     300,
		UserSpaceCrossNs:    100,
		DPDKPollPathNs:      350,
		CryptoPerByteNs:     6.0,
		CryptoUserFactor:    1.0,

		VMBootTime:  8 * time.Second,
		DockerStart: 300 * time.Millisecond,
		NativeStart: 50 * time.Millisecond,
		DPDKStart:   900 * time.Millisecond,

		// Workload (strongSwan + SA state) is ~19.4 MB in every flavor;
		// the bases below reproduce Table 1's 390.6/24.2/19.4 MB column.
		VMBaseRAM:     389351219, // 371.2 MB: guest kernel+userland+QEMU heap
		DockerBaseRAM: 5033165,   // 4.8 MB: runtime per-container slice
		NativeBaseRAM: 0,
		DPDKBaseRAM:   64 * MB, // hugepage pool
	}
}

// PacketCost returns the simulated processing time of one packet of the
// given size in the given flavor. cryptoBytes is the number of bytes that
// undergo encryption or decryption (0 for non-crypto NFs). It is the
// one-packet case of Cost.
func (m CostModel) PacketCost(f Flavor, frameBytes, cryptoBytes int) time.Duration {
	return m.Cost(f, Counts{Packets: 1, FrameBytes: uint64(frameBytes), CryptoBytes: uint64(cryptoBytes)})
}

// Cost returns the simulated processing time of the packet work c in the
// given flavor. It is linear in the counts: it differs from the sum of the
// packets' PacketCosts only by the sub-nanosecond remainder each of those
// truncates.
func (m CostModel) Cost(f Flavor, c Counts) time.Duration {
	perPacket, perFrameByte, perCryptoByte := float64(m.KernelPathNs), 0.0, m.CryptoPerByteNs
	switch f {
	case FlavorNative: // the host kernel path and crypto
	case FlavorDocker:
		perPacket = float64(m.KernelPathNs + m.NamespaceVethNs)
	case FlavorVM:
		// Host side, vmexit, two guest context switches and user-space
		// crossings; a virtio copy each way; user-space crypto.
		perPacket = float64(m.KernelPathNs + m.VMExitNs + 2*m.ContextSwitchNs + 2*m.UserSpaceCrossNs)
		perFrameByte = 2 * m.VirtioCopyPerByteNs
		perCryptoByte = m.CryptoPerByteNs * m.CryptoUserFactor
	case FlavorDPDK:
		perPacket = float64(m.DPDKPollPathNs)
	default: // an unknown flavor: the kernel path alone
		perCryptoByte = 0
	}
	return time.Duration(perPacket*float64(c.Packets) + perFrameByte*float64(c.FrameBytes) + perCryptoByte*float64(c.CryptoBytes))
}

// StartupTime returns the simulated boot/start latency of a flavor.
func (m CostModel) StartupTime(f Flavor) time.Duration {
	switch f {
	case FlavorVM:
		return m.VMBootTime
	case FlavorDocker:
		return m.DockerStart
	case FlavorDPDK:
		return m.DPDKStart
	default:
		return m.NativeStart
	}
}

// BaseRAM returns the flavor's runtime RAM overhead excluding the workload.
func (m CostModel) BaseRAM(f Flavor) uint64 {
	switch f {
	case FlavorVM:
		return m.VMBaseRAM
	case FlavorDocker:
		return m.DockerBaseRAM
	case FlavorDPDK:
		return m.DPDKBaseRAM
	default:
		return m.NativeBaseRAM
	}
}
