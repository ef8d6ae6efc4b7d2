package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is the chaos failpoint: injected bee panics.

// panicInjector arms compiled bee closures to panic, exercising the
// quarantine path from tests and the chaos harness. Disarmed cost on the
// per-tuple path is one atomic load.
type panicInjector struct {
	armed  atomic.Bool
	mu     sync.Mutex
	kind   string // "" matches any kind
	substr string // "" matches any name
}

// InjectBeePanic arms the failpoint: every invocation of a compiled bee
// whose kind equals kind (or kind == "") and whose name contains substr
// (or substr == "") panics until ClearBeePanic.
func (m *Module) InjectBeePanic(kind, substr string) {
	m.inject.mu.Lock()
	m.inject.kind, m.inject.substr = kind, substr
	m.inject.mu.Unlock()
	m.inject.armed.Store(true)
}

// ClearBeePanic disarms the failpoint.
func (m *Module) ClearBeePanic() { m.inject.armed.Store(false) }

// maybePanic is called by compiled bee closures on each invocation.
func (m *Module) maybePanic(b *Bee) {
	if !m.inject.armed.Load() {
		return
	}
	m.inject.mu.Lock()
	k, s := m.inject.kind, m.inject.substr
	m.inject.mu.Unlock()
	if (k == "" || k == b.kind) && (s == "" || strings.Contains(b.name, s)) {
		panic(fmt.Sprintf("injected bee panic: %s %q", b.kind, b.name))
	}
}
