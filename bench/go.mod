module btrblocks/bench

go 1.22

require btrblocks v0.0.0

replace btrblocks => ../
