package drange

import "repro/internal/device"

func sneak(dev device.Device) ([]uint64, error) {
	return dev.ReadWord(0, 0) // want "raw device read device.ReadWord"
}

// The public alias names the internal contract, so a read through it is the
// same raw device read.
func sneakPublic(dev Device) ([]uint64, error) {
	return dev.ReadWord(0, 0) // want "raw device read device.ReadWord"
}
