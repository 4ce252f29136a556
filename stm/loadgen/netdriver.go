package loadgen

import (
	"fmt"
	"net"
	"strconv"
	"strings"

	"tokentm/stm/resp"
)

// NetDriver drives one server connection with the RESP-lite dialect of
// stm/server: Get/Put map to GET/SET, Atomic maps to a MULTI…EXEC block
// (MGET for the reads, MSET for the blind writes); values read are parsed
// out of the GET/EXEC reply. A -RETRY reply — the server's
// bounded-contention rollback — is retried transparently and counted;
// per-op latency therefore includes wire round trips and any retries, which
// is the whole point of the net target.
type NetDriver struct {
	nc      net.Conn
	r       *resp.Reader
	w       *resp.Writer
	retries uint64
	args    []string // scratch for command assembly
}

// DialNet connects a driver to a stm/server address.
func DialNet(addr string) (*NetDriver, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &NetDriver{nc: nc, r: resp.NewReader(nc), w: resp.NewWriter(nc)}, nil
}

func (d *NetDriver) Close() error { return d.nc.Close() }

// Retries reports how many Atomic transactions were resent after -RETRY.
func (d *NetDriver) Retries() uint64 { return d.retries }

// roundTrip sends d.args as one command and returns the reply.
func (d *NetDriver) roundTrip() (resp.Reply, error) {
	if err := d.w.WriteCommand(d.args...); err != nil {
		return resp.Reply{}, err
	}
	if err := d.w.Flush(); err != nil {
		return resp.Reply{}, err
	}
	return d.r.ReadReply()
}

func replyErr(op string, rep resp.Reply) error {
	return fmt.Errorf("loadgen: %s answered %c %s", op, rep.Type, rep.Str)
}

// bulkUint decodes a bulk reply carrying a decimal uint64; the null bulk
// (absent key) reads as 0.
func bulkUint(op string, rep resp.Reply) (uint64, error) {
	if rep.Type != '$' {
		return 0, replyErr(op, rep)
	}
	if rep.Null {
		return 0, nil
	}
	v, err := strconv.ParseUint(rep.Str, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("loadgen: %s reply %q: %w", op, rep.Str, err)
	}
	return v, nil
}

func (d *NetDriver) Get(key uint64) (uint64, error) {
	d.args = append(d.args[:0], "GET", strconv.FormatUint(key, 10))
	rep, err := d.roundTrip()
	if err != nil {
		return 0, err
	}
	if rep.Type != '*' || len(rep.Elems) != 3 {
		return 0, replyErr("GET", rep)
	}
	return bulkUint("GET", rep.Elems[0])
}

func (d *NetDriver) Put(key, val uint64) error {
	d.args = append(d.args[:0], "SET", strconv.FormatUint(key, 10), strconv.FormatUint(val, 10))
	rep, err := d.roundTrip()
	if err != nil {
		return err
	}
	if rep.Type != '*' {
		return replyErr("SET", rep)
	}
	return nil
}

// Atomic issues MULTI / MGET / MSET / EXEC as one pipelined block and
// retries the whole block on -RETRY (the transaction rolled back wholly, so
// resending is safe). Empty get or put sets skip their queued command. The
// EXEC reply is [results, serials]; with reads queued, results[0] is the
// MGET's value array.
func (d *NetDriver) Atomic(getKeys, putKeys, putVals, got []uint64) error {
	for {
		queued := 0
		if err := d.w.WriteCommand("MULTI"); err != nil {
			return err
		}
		if len(getKeys) > 0 {
			d.args = append(d.args[:0], "MGET")
			for _, k := range getKeys {
				d.args = append(d.args, strconv.FormatUint(k, 10))
			}
			if err := d.w.WriteCommand(d.args...); err != nil {
				return err
			}
			queued++
		}
		if len(putKeys) > 0 {
			d.args = append(d.args[:0], "MSET")
			for i, k := range putKeys {
				d.args = append(d.args, strconv.FormatUint(k, 10), strconv.FormatUint(putVals[i], 10))
			}
			if err := d.w.WriteCommand(d.args...); err != nil {
				return err
			}
			queued++
		}
		if err := d.w.WriteCommand("EXEC"); err != nil {
			return err
		}
		if err := d.w.Flush(); err != nil {
			return err
		}
		var rep resp.Reply
		var err error
		for i := 0; i < queued+2; i++ { // +OK, +QUEUED..., EXEC reply
			if rep, err = d.r.ReadReply(); err != nil {
				return err
			}
		}
		switch {
		case rep.Type == '*':
			if len(got) == 0 {
				return nil
			}
			if len(rep.Elems) != 2 || len(rep.Elems[0].Elems) != queued || len(rep.Elems[0].Elems[0].Elems) != len(got) {
				return replyErr("EXEC", rep)
			}
			for i, e := range rep.Elems[0].Elems[0].Elems {
				if got[i], err = bulkUint("EXEC", e); err != nil {
					return err
				}
			}
			return nil
		case rep.Type == '-' && strings.HasPrefix(rep.Str, "RETRY"):
			d.retries++
			continue
		default:
			return replyErr("EXEC", rep)
		}
	}
}

// NetChecksum asks the server for its store checksum (quiescent stores
// only: call after every driver has stopped).
func NetChecksum(addr string) (uint64, error) {
	d, err := DialNet(addr)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	d.args = append(d.args[:0], "CHECKSUM")
	rep, err := d.roundTrip()
	if err != nil {
		return 0, err
	}
	return bulkUint("CHECKSUM", rep)
}
