package drange

import "repro/internal/device"

// Device is the facade's name for the one device contract, as in the real
// package.
type Device = device.Device

// backend.go registers backends but wraps no device, so it is not exempt.
func probe(dev Device) error {
	return dev.Activate(0, 0, 10) // want "raw device read device.Activate"
}
