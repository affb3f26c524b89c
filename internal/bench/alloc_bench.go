package bench

import (
	"fmt"

	"mwllsc/internal/server"
	"mwllsc/internal/wire"
)

// E13Allocs builds the allocation table: steady-state heap allocations
// per operation on every stage of the serving hot path — wire encode
// and decode for requests and responses, and the server's
// execute-and-write path for Read and Update. Each row must be zero:
// the per-slot responses, recycled frame/data buffers, reacquirable map
// handle and pre-bound merge closures exist precisely so that serving a
// warm request allocates nothing, and TestE13AllocsZero fails the build
// on any new allocation, so one on the hot path surfaces as a red
// check instead of a slow drift in throughput.
func E13Allocs(o Options) (*Table, error) {
	const runs = 400
	t := &Table{
		ID:    "e13",
		Title: "E13: steady-state heap allocations per op on the serving hot path",
		Note: "wire rows: one encode or decode of a W=2 Update/Read-shaped payload into recycled buffers; " +
			"server rows: one request through the batch executor and the response write, " +
			"response slots, handle and buffers warm. " +
			"Every row must be zero; TestE13AllocsZero fails on any increase.",
		Cols: []string{"path", "allocs/op"},
	}

	req := &wire.Request{ID: 7, Op: wire.OpUpdate, Mode: wire.ModeAdd, Key: 42, Args: []uint64{1, 2}}
	var reqBuf []byte
	t.AddRow("wire request encode", allocsPerRun(runs, func() {
		reqBuf = wire.AppendRequest(reqBuf[:0], req)
	}))
	var reqDec wire.Request
	t.AddRow("wire request decode", allocsPerRun(runs, func() {
		if err := wire.DecodeRequest(&reqDec, reqBuf); err != nil {
			panic(err)
		}
	}))

	resp := &wire.Response{ID: 7, Status: wire.StatusOK, Rows: 1, Words: 2, Data: []uint64{3, 4}}
	var respBuf []byte
	t.AddRow("wire response encode", allocsPerRun(runs, func() {
		respBuf = wire.AppendResponse(respBuf[:0], resp)
	}))
	var respDec wire.Response
	t.AddRow("wire response decode", allocsPerRun(runs, func() {
		if err := wire.DecodeResponse(&respDec, respBuf); err != nil {
			panic(err)
		}
	}))

	srv, err := server.HotPathAllocs(runs)
	if err != nil {
		return nil, fmt.Errorf("E13: %w", err)
	}
	t.AddRow("server read", srv.Read)
	t.AddRow("server update", srv.Update)
	return t, nil
}
