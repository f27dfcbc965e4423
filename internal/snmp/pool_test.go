package snmp

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"nmsl/internal/mib"
)

// poolTestVars are the variables the receive-buffer tests read: one of
// each payload kind Unmarshal decodes out of the datagram (octets,
// opaque, IP address, OID).
var poolTestVars = []string{
	"mgmt.mib.system.sysDescr",
	"mgmt.mib.system.sysContact",
	"mgmt.mib.ip.ipAddrTable.IpAddrEntry.ipAdEntAddr",
	"mgmt.mib.system.sysObjectID",
}

// poolTestNet hosts n agents whose values for poolTestVars are distinct
// per host but equal in length, so a response decoded out of a reused
// buffer would be overwritten in place by another host's bytes.
func poolTestNet(t *testing.T, name string, n int) (*MemNet, []mib.OID, [][]Binding) {
	t.Helper()
	mn, err := NewMemNet(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mn.Close() })
	tree := mib.NewStandard()
	oids := make([]mib.OID, len(poolTestVars))
	for i, v := range poolTestVars {
		node := tree.Lookup(v)
		if node == nil {
			t.Fatalf("no MIB node %s", v)
		}
		oids[i] = node.OID()
	}
	want := make([][]Binding, n)
	for h := 0; h < n; h++ {
		vals := []Value{
			Str(fmt.Sprintf("descr-of-host-%04d", h)),
			Opaque([]byte(fmt.Sprintf("contact-%04d", h))),
			{Tag: TagIPAddress, Bytes: []byte{10, byte(h >> 8), byte(h), 1}},
			{Tag: TagOID, OID: mib.OID{1, 3, 6, 1, 4, 1, 9999, h}},
		}
		agent := memAgent()
		for i, o := range oids {
			agent.store.Set(o, vals[i])
			want[h] = append(want[h], Binding{OID: o.Clone(), Value: vals[i]})
		}
		if _, err := mn.AddHost(fmt.Sprintf("h%d", h), agent); err != nil {
			t.Fatal(err)
		}
	}
	return mn, oids, want
}

func dialPublic(t *testing.T, mn *MemNet, h int) *Client {
	t.Helper()
	c, err := Dial(mn.Addr(fmt.Sprintf("h%d", h)), "public")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetTimeout(2 * time.Second)
	return c
}

// A response must own its bytes: the client hands its receive buffer
// back to the pool when the call returns, so any binding still pointing
// into it would be overwritten by later round trips — on the same client
// or on any other.
func TestClientResponsesOutliveReceiveBuffer(t *testing.T) {
	const hosts = 4
	mn, oids, want := poolTestNet(t, "pool-alias", hosts)
	clients := make([]*Client, hosts)
	for h := range clients {
		clients[h] = dialPublic(t, mn, h)
	}
	first := make([][]Binding, hosts)
	for h, c := range clients {
		got, err := c.Get(oids...)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[h]) {
			t.Fatalf("h%d: got %v, want %v", h, got, want[h])
		}
		first[h] = got
	}
	for round := 0; round < 200; round++ {
		for h, c := range clients {
			// Alternate hosts on the same client and across clients, so
			// every reused buffer is rewritten with another host's bytes.
			if _, err := c.Get(oids...); err != nil {
				t.Fatal(err)
			}
			if _, err := clients[(h+round)%hosts].Get(oids...); err != nil {
				t.Fatal(err)
			}
		}
	}
	for h := range first {
		if !reflect.DeepEqual(first[h], want[h]) {
			t.Errorf("h%d: first response changed after later round trips:\n got  %v\n want %v", h, first[h], want[h])
		}
	}
}

// Concurrent clients draw receive buffers from the one pool: private
// mem:// clients (two per host) alongside clients sharing one UDP
// socket through a ClientMux. Run under -race, this catches a buffer
// handed to two round trips at once, and every response must still be
// its own host's.
func TestClientReceivePoolConcurrent(t *testing.T) {
	const hosts, rounds = 4, 50
	mn, oids, want := poolTestNet(t, "pool-race", hosts)
	mux, err := NewClientMux()
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	type worker struct {
		c    *Client
		want []Binding
	}
	var workers []worker
	for h := 0; h < hosts; h++ {
		workers = append(workers, worker{dialPublic(t, mn, h), want[h]}, worker{dialPublic(t, mn, h), want[h]})
		agent := mn.Agent(fmt.Sprintf("h%d", h))
		addr, err := agent.ListenAndServe("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { agent.Close() })
		c, err := mux.Dial(addr.String(), "public")
		if err != nil {
			t.Fatal(err)
		}
		c.SetTimeout(2 * time.Second)
		workers = append(workers, worker{c, want[h]})
	}
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w worker) {
			defer wg.Done()
			var kept [][]Binding
			for r := 0; r < rounds; r++ {
				got, err := w.c.Get(oids...)
				if err != nil {
					t.Errorf("worker %d: %v", i, err)
					return
				}
				kept = append(kept, got)
			}
			for r, got := range kept {
				if !reflect.DeepEqual(got, w.want) {
					t.Errorf("worker %d round %d: got %v, want %v", i, r, got, w.want)
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
}
