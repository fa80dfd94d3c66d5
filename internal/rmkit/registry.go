package rmkit

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"mrcprm/internal/sim"
)

// Options carries the policy-agnostic knobs a caller can set when
// constructing a manager by name. Policy-specific configuration travels in
// Extra; a factory ignores an Extra of a type it does not understand, so
// one Options value can be fanned out across every registered policy.
type Options struct {
	// Retry overrides the policy's default retry budgets when non-nil.
	Retry *RetryPolicy
	// Extra is policy-specific configuration (core.Config for "mrcp").
	Extra any
}

// Factory constructs one resource manager for a cluster.
type Factory func(cluster sim.Cluster, opts Options) (sim.ResourceManager, error)

var (
	regMu    sync.RWMutex
	registry = make(map[string]Factory)
)

// Register adds a policy under a selection name (the -rm value). Policies
// call it from an init function in their own package (rmkit for the list
// baselines, core for mrcp); importing the package is all it takes to make
// the policy selectable everywhere. Registering a duplicate or empty name,
// or a nil factory, panics: both are programming errors.
func Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("rmkit: Register requires a name and a factory")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("rmkit: policy %q registered twice", name))
	}
	registry[name] = f
}

// New constructs the named policy's manager for the cluster. An unknown
// name's error lists every registered policy.
func New(name string, cluster sim.Cluster, opts Options) (sim.ResourceManager, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("rmkit: unknown resource manager %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(cluster, opts)
}

// Names returns every registered policy name, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
