from .cli import process_main

process_main()
