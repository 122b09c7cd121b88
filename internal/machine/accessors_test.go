package machine

// Accessors that only tests read.

import "repro/internal/profile"

// ID returns the machine identifier.
func (m *Machine) ID() string { return m.id }

// Arch returns the machine's architecture profile.
func (m *Machine) Arch() profile.Arch { return m.arch }
