package client

// BufKeep is bufKeep, the bound on the bytes waiting in a connection's
// write buffer.
const BufKeep = bufKeep

// BufferedBytes returns the bytes of frames waiting for a write on c's
// connections.
func BufferedBytes(c *Client) int {
	n := 0
	for _, sl := range c.slots {
		sl.mu.Lock()
		cn := sl.cn
		sl.mu.Unlock()
		if cn != nil {
			cn.wmu.Lock()
			n += len(cn.buf)
			cn.wmu.Unlock()
		}
	}
	return n
}
