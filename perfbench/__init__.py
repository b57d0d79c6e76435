"""Host-time benchmark of the serving simulator (see README.md)."""
