package sim

import (
	"fmt"
	"sort"
	"time"
)

// Node-level CPU contention. Services placed on a shared node compete for
// its cores: when more compute executions are active than cores, everyone's
// wall time stretches while the CPU *work* stays the same. This is the
// noisy-neighbor interference of multi-tenant clusters — a latent confounder
// the paper's observability model cannot attribute (the victim's occupancy
// telemetry shifts although nothing about the victim changed).
//
// Services without a Node assignment run uncontended, so existing topologies
// are unaffected unless they opt in.

// NodeConfig declares one compute node.
type NodeConfig struct {
	// Name identifies the node.
	Name string
	// Cores is the CPU capacity; fractional values model cgroup limits.
	Cores float64
}

// node tracks the live compute pressure on one node.
type node struct {
	cfg NodeConfig
	// active counts in-flight compute executions of placed services;
	// background models unmonitored co-tenants (batch jobs, daemonsets)
	// that consume cores without appearing in any service's telemetry.
	active     int
	background int
}

// slowdown returns the wall-time stretch factor for a compute execution
// starting now, with the execution itself already counted in active. It is
// sampled at start-of-compute — a standard discrete-event approximation of
// processor sharing (exact time-slicing would require re-planning every
// in-flight execution on every arrival).
func (n *node) slowdown() float64 {
	if n == nil {
		return 1
	}
	pressure := float64(n.active+n.background) / n.cfg.Cores
	if pressure < 1 {
		return 1
	}
	return pressure
}

// AddNode registers a compute node.
func (c *Cluster) AddNode(cfg NodeConfig) error {
	if cfg.Name == "" {
		return fmt.Errorf("sim: node name must not be empty")
	}
	if cfg.Cores <= 0 {
		return fmt.Errorf("sim: node %q needs positive cores, got %v", cfg.Name, cfg.Cores)
	}
	if _, dup := c.nodes[cfg.Name]; dup {
		return fmt.Errorf("sim: duplicate node %q", cfg.Name)
	}
	if c.nodes == nil {
		c.nodes = make(map[string]*node)
	}
	c.nodes[cfg.Name] = &node{cfg: cfg}
	return nil
}

// Place assigns a service to a node. Services start unplaced (uncontended).
func (c *Cluster) Place(service, nodeName string) error {
	svc, ok := c.services[service]
	if !ok {
		return fmt.Errorf("sim: place: %w", &UnknownServiceError{Name: service})
	}
	n, ok := c.nodes[nodeName]
	if !ok {
		return fmt.Errorf("sim: place: unknown node %q", nodeName)
	}
	svc.node = n
	return nil
}

// NodeNames returns the registered node names sorted alphabetically. The
// slice is a copy; callers may modify it.
func (c *Cluster) NodeNames() []string {
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// PlacedOn returns the services assigned to the named node, in registration
// order.
func (c *Cluster) PlacedOn(nodeName string) ([]string, error) {
	n, ok := c.nodes[nodeName]
	if !ok {
		return nil, fmt.Errorf("sim: unknown node %q", nodeName)
	}
	var out []string
	for _, name := range c.order {
		if c.services[name].node == n {
			out = append(out, name)
		}
	}
	return out, nil
}

// EvacuateNode unassigns every service placed on the named node, returning
// how many were moved. Evacuated services run uncontended afterwards — the
// "reroute around a sick node" repair intervention. In-flight compute
// executions keep their already-sampled slowdown; only executions starting
// after the evacuation escape the node's pressure.
func (c *Cluster) EvacuateNode(nodeName string) (int, error) {
	n, ok := c.nodes[nodeName]
	if !ok {
		return 0, fmt.Errorf("sim: unknown node %q", nodeName)
	}
	moved := 0
	for _, name := range c.order {
		if svc := c.services[name]; svc.node == n {
			svc.node = nil
			moved++
		}
	}
	return moved, nil
}

// SetNodeBackgroundLoad sets the number of core-equivalents an unmonitored
// co-tenant burns on the node. It is the interference injection of the
// noisy-neighbor experiments: the pressure is real, but no monitored
// service's counters show where it comes from.
func (c *Cluster) SetNodeBackgroundLoad(nodeName string, coreEquivalents int) error {
	n, ok := c.nodes[nodeName]
	if !ok {
		return fmt.Errorf("sim: unknown node %q", nodeName)
	}
	if coreEquivalents < 0 {
		return fmt.Errorf("sim: negative background load %d", coreEquivalents)
	}
	n.background = coreEquivalents
	return nil
}

// NodeActive reports the live compute executions on a node (for tests).
func (c *Cluster) NodeActive(nodeName string) (int, error) {
	n, ok := c.nodes[nodeName]
	if !ok {
		return 0, fmt.Errorf("sim: unknown node %q", nodeName)
	}
	return n.active, nil
}

// computeOn executes d of CPU work for the handler serving req, applying
// node contention; the service's computed runs when it ends. CPUSeconds
// accrues the work (demand); wall time stretches by the node's pressure.
func (s *Service) computeOn(req *request, d time.Duration) {
	s.addCPU(d)
	n := s.node
	if n == nil {
		s.cluster.eng.afterReq(d, evComputed, req, 0)
		return
	}
	n.active++
	req.node = n
	wall := time.Duration(float64(d) * n.slowdown())
	s.cluster.eng.afterReq(wall, evComputed, req, 0)
}
