// Package drange stands in for the facade; replay.go is an allowlisted
// device-wrapping backend file.
package drange

import "repro/internal/device"

type wrapped struct{ inner device.Device }

func (w wrapped) ReadWord(bank, wordIdx int) ([]uint64, error) {
	return w.inner.ReadWord(bank, wordIdx) // wrapping backend file: allowed
}
