package client

import (
	"context"

	"ccpfs/internal/dlm"
	"ccpfs/internal/rpc"
	"ccpfs/internal/transport"
	"ccpfs/internal/wire"
)

// This file wires the client into the lock handoff fast path
// (DESIGN.md §13, §14). The client is both ends of the transfer: as the
// revoked holder, a gathering writer or a lease-tree node it sends
// MHandoff to the next owner over a direct peer connection, and as the
// next owner it accepts MHandoff — from a peer, or from the server (the
// part of a predecessor that released instead of transferring, or the
// activation after a reclaim) — and hands it to the lock client.

// PeerDialer resolves another client's lock client ID to an RPC endpoint
// on that client's peer listener. It is called at most once per peer;
// the endpoint is cached until it errors. It arrives unstarted: the
// client attaches its RPC metrics and starts it, as New does with its
// server connections.
type PeerDialer func(peer dlm.ClientID) (*rpc.Endpoint, error)

// ServePeers accepts client-to-client handoff connections on l. Every
// inbound endpoint only answers MHandoff, counted in the client's RPC
// metrics; the accept loop runs until l closes (Close/Shutdown close it
// with the other connections).
func (c *Client) ServePeers(l transport.Listener) {
	c.peerSrv = rpc.NewServer(l, rpc.Options{Clock: c.clk, Metrics: c.rpcMetrics}, func(ep *rpc.Endpoint) {
		ep.Handle(wire.MHandoff, c.handleHandoff)
	})
	c.clk.Go(c.peerSrv.Serve)
}

// SetPeerDialer installs the peer address book and enables the
// client-to-client transfer path. Without it, stamped revocations
// still work — the cancel path falls back to releasing through the
// server, which sends the next owner the lock's part itself.
func (c *Client) SetPeerDialer(d PeerDialer) {
	c.peerMu.Lock()
	c.peerDial = d
	if c.peerEps == nil {
		c.peerEps = make(map[dlm.ClientID]*rpc.Endpoint)
	}
	c.peerMu.Unlock()
	if d != nil {
		c.lc.SetPeerSender(c)
	} else {
		c.lc.SetPeerSender(nil)
	}
}

// handleHandoff processes an inbound transfer: a part or activation of
// a lock that is now this client's, or a cohort of leases whose first
// is this client's own. Duplicates (peer transfer racing the server's
// activation) are dropped inside the lock client.
func (c *Client) handleHandoff(_ context.Context, p []byte) (wire.Msg, error) {
	var req wire.HandoffRequest
	if err := wire.Unmarshal(p, &req); err != nil {
		return nil, err
	}
	t := dlm.Transfer{Lock: dlm.LockID(req.LockID), Member: dlm.LockID(req.Member), Final: req.Final,
		Acks: make([]dlm.LockID, 0, len(req.Acks)), Cohort: dlm.StampFromWire(req.Cohort)}
	for _, a := range req.Acks {
		t.Acks = append(t.Acks, dlm.LockID(a))
	}
	c.lc.OnTransfer(dlm.ResourceID(req.Resource), t)
	return &wire.Ack{}, nil
}

// handleAckSolicit processes the server's request to confirm a
// delegated lock without delay; the lock client answers with an
// ordinary MHandoffAck, now or when the transfer installs.
func (c *Client) handleAckSolicit(_ context.Context, p []byte) (wire.Msg, error) {
	var req wire.AckSolicit
	if err := wire.Unmarshal(p, &req); err != nil {
		return nil, err
	}
	c.lc.OnAckSolicit(dlm.ResourceID(req.Resource), dlm.LockID(req.LockID))
	return &wire.Ack{}, nil
}

// transferCall is one transfer's request and the wire form of its
// cohort, allocated together.
type transferCall struct {
	req    wire.HandoffRequest
	cohort wire.Stamp
}

// SendTransfer implements dlm.PeerSender: deliver t to peer. An error
// (no dialer, dead peer) makes the lock client fall back to releasing
// through the server, or leaves a cohort's leases to the reclaimer.
func (c *Client) SendTransfer(ctx context.Context, peer dlm.ClientID, res dlm.ResourceID, t dlm.Transfer) error {
	ep, err := c.peerEndpoint(peer)
	if err != nil {
		return err
	}
	call := new(transferCall)
	req := &call.req
	*req = wire.HandoffRequest{Resource: uint64(res), LockID: uint64(t.Lock), Member: uint64(t.Member),
		Final: t.Final, Cohort: dlm.StampToWire(t.Cohort, &call.cohort)}
	for _, a := range t.Acks {
		req.Acks = append(req.Acks, uint64(a))
	}
	err = ep.Call(ctx, wire.MHandoff, req, nil)
	if err != nil {
		c.dropPeer(peer, ep)
	}
	return err
}

// peerEndpoint returns the cached endpoint for a peer, dialing on the
// first transfer to it.
func (c *Client) peerEndpoint(peer dlm.ClientID) (*rpc.Endpoint, error) {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	if ep, ok := c.peerEps[peer]; ok {
		return ep, nil
	}
	if c.peerDial == nil {
		return nil, wire.Errorf(wire.CodeInvalid, "client: no peer dialer")
	}
	ep, err := c.peerDial(peer)
	if err != nil {
		return nil, err
	}
	ep.SetMetrics(c.rpcMetrics)
	ep.Start()
	c.peerEps[peer] = ep
	return ep, nil
}

// dropPeer discards a failed peer endpoint so the next transfer to
// that peer redials.
func (c *Client) dropPeer(peer dlm.ClientID, ep *rpc.Endpoint) {
	c.peerMu.Lock()
	if c.peerEps[peer] == ep {
		delete(c.peerEps, peer)
	}
	c.peerMu.Unlock()
	ep.Close()
}

// closePeers tears down the peer transport with the other connections.
func (c *Client) closePeers() {
	if c.peerSrv != nil {
		c.peerSrv.Close()
	}
	c.peerMu.Lock()
	eps := c.peerEps
	c.peerEps = nil
	c.peerDial = nil
	c.peerMu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}
